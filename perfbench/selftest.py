#!/usr/bin/env python3
"""Self-test: ``crr_offload`` measures the paper's experiment itself.

First checks that ``BENCHMARK.json`` names exactly the metrics, with
the units, that ``run.py`` reports. Then runs
``repro.experiments.fig14.run_point`` at fig14's defaults and the
benchmark's ``crr_offload`` repetition at the same seed, and requires
the two per-bucket loss series to be equal, value for value. That
proves the benchmark's split engine runs and its latency-recording
closed loop send exactly the traffic fig14's ``ClosedLoopCrr`` does.
Takes two fig14 runs, about a minute on a 2-core box.

Usage, from the repository root::

    python3 perfbench/selftest.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def metrics_match() -> bool:
    import layers
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ok = True
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(reported):
            print(f"DIFF BENCHMARK.json {key} != what run.py reports")
            ok = False
    print(f"{'ok  ' if ok else 'DIFF'} BENCHMARK.json metrics match run.py")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, HERE]
    from repro.experiments import fig14
    import workloads

    names_ok = metrics_match()
    reference = fig14.run_point((workloads.KILL_AT, workloads.DURATION,
                                 workloads.BUCKET,
                                 workloads.MONITOR_INTERVAL, args.seed))
    expected = [(row["time_s"], row["loss_rate"])
                for row in reference["rows"]]
    rep = workloads.crr_rep(args.seed)
    got = rep.extra["buckets"]
    for index, (want, have) in enumerate(zip(expected, got)):
        status = "ok  " if want == have else "DIFF"
        print(f"{status} bucket {index:2d}  fig14 t={want[0]:.3f} "
              f"loss={want[1]:.4f}  perfbench t={have[0]:.3f} "
              f"loss={have[1]:.4f}")
    same = expected == got
    print(f"{len(expected)} fig14 buckets, {len(got)} benchmark buckets: "
          f"{'identical' if same else 'DIFFERENT'}")
    print(f"sim_loss_surge_s={rep.sim['sim_loss_surge_s']}; fig14 notes: "
          f"{reference['notes'][0]}")
    return 0 if same and names_ok else 1


if __name__ == "__main__":
    sys.exit(main())
