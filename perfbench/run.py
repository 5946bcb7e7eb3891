#!/usr/bin/env python3
"""Benchmark of the Nezha reproduction: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload crr_offload --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` host seconds (at
least ``min_reps`` repetitions), sets up at least three
times, and reports the end-to-end metrics as medians over repetitions.
Times are reference seconds: host seconds scaled by the host speed
measured next to each lap (``workloads.Stopwatch``).
``--trace 1`` runs one untraced repetition, installs the layer tracer
and runs one traced repetition, and reports the per-layer metrics; the
two repetitions must produce the same simulated-output digest.

Every run checks its simulated outputs, prints a human-readable table,
then a ``report:`` line (provenance, every metric, the digest, each
check), and last one JSON line: ``correct``, ``attempted``, ``failed``
(operations of runs that failed a check; losses the modelled system
suffers are ``error_rate``) and ``metrics``. The exit code is 0 when
every check passed, 1 when one failed, 2 when the program under test
is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of the end-to-end metrics; BENCHMARK.json lists the same.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
MIN_SETUPS = 3
#: Stop adding repetitions after this many host seconds, whatever
#: ``--seconds`` asks, so a run always ends well inside its time limit.
REP_BUDGET_S = 100.0


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git (the
    benchmark may run in an export that has no repository)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS so far of the largest process: this one or a waited-for
    child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def merged_checks(reps) -> dict:
    """Each check passes only if it passed in every repetition."""
    checks: dict = {}
    for rep in reps:
        for check, ok in rep.checks.items():
            checks[check] = checks.get(check, True) and ok
    return checks


def timed_run(workloads, name: str, seed: int, seconds: float):
    spec = workloads.WORKLOADS[name]
    rep_fn, setup_fn = spec["rep"], spec["setup"]
    reps = []
    host_s = 0.0
    while (len(reps) < spec["min_reps"]
           or host_s < min(seconds, REP_BUDGET_S)):
        gc.collect()    # every repetition starts from the same heap
        reps.append(rep_fn(seed))
        host_s += reps[-1].wall_raw_s
        if len(reps) == 1:
            # Later repetitions inherit an allocator fragmented by earlier
            # ones (and fork it into pool workers): the first one is the
            # peak a user of a fresh process sees.
            first_peak = peak_rss_mb()
    setups = [rep.setup_s for rep in reps]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(setup_fn(seed))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        # Median over window chunks of every repetition: a host stall
        # skews one chunk, not the figure.
        "ops_per_s": statistics.median(rate for rep in reps
                                       for rate in rep.rates),
        "peak_rss_mb": first_peak,
    }
    checks = merged_checks(reps)
    checks["same seed, same outputs in every repetition"] = \
        len({rep.digest for rep in reps}) == 1
    info = {"reps": len(reps), "setups": len(setups), "host_s": host_s,
            "setup_s_each": setups,
            "ops_per_s_each": [rep.ops_per_s for rep in reps],
            "wall_s_each": [rep.wall_s for rep in reps],
            "wall_raw_s_each": [rep.wall_raw_s for rep in reps]}
    return metrics, reps[0], checks, sum(r.attempted for r in reps), info


def traced_run(workloads, name: str, seed: int):
    import layers
    import tracer
    spec = workloads.WORKLOADS[name]
    rep_fn = spec["rep"]
    view = pool_stats = None
    if name == "fleet_10k":
        # The product configuration (resident pool) for the views and
        # the IPC figures, then the in-process path the tracer can see.
        view = rep_fn(seed)
        pool_stats = view.extra["stats"]
        base = rep_fn(seed, jobs=1)
    else:
        base = rep_fn(seed)
    obs = layers.Observations()
    tracer.install(hooks=obs.hooks(), inclusive=layers.INCLUSIVE)
    tracer.reset()
    traced = rep_fn(seed, jobs=1) if name == "fleet_10k" else rep_fn(seed)
    metrics = layers.per_layer_metrics(
        spec["op"], base, traced, obs, traced.attempted, view=view,
        pool_stats=pool_stats, crash_at=traced.extra.get("crash_at"))
    reps = [rep for rep in (view, base, traced) if rep is not None]
    checks = merged_checks(reps)
    checks["traced outputs == untraced outputs (digest)"] = \
        len({rep.digest for rep in reps}) == 1
    info = {"untraced_wall_s": base.wall_s, "traced_wall_s": traced.wall_s,
            "untraced_wall_raw_s": base.wall_raw_s,
            "traced_wall_raw_s": traced.wall_raw_s}
    return metrics, base, checks, sum(rep.attempted for rep in reps), info


def print_table(name: str, metrics: dict, units: dict, rep, trace: bool,
                op_name: str) -> None:
    print(f"== perfbench {name} ({'traced' if trace else 'untraced'}) ==")
    for metric, value in metrics.items():
        label = metric
        if metric == "ops_per_s":
            label = f"{op_name} (ops_per_s)"
        print(f"  {label:<34} {value:>16.6g} {units[metric]}")
    if not trace:
        for metric, value in rep.sim.items():
            note = ""
            if metric == "sim_conn_p99_us":
                note = f"  (n={rep.sim['sim_conn_samples']})"
            if metric == "sim_loss_surge_s":
                note = "  (paper ~2 s; ROADMAP item 1 owns the fix)"
            print(f"  {metric:<34} {value:>16.6g}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program under test at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kwargs": spec["kwargs"], "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Best of five: how fast this host runs Python when least loaded.
        "calibration_ops_per_s": max(workloads.Stopwatch.host_speed()
                                     for _ in range(5)),
        "reference_ops_per_s": workloads.Stopwatch.REFERENCE_SPEED,
    }
    if args.trace:
        import layers
        units = dict(layers.PER_LAYER)
    else:
        units = dict(END_TO_END)
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, rep, checks, attempted, info = traced_run(
                workloads, args.workload, args.seed)
        else:
            metrics, rep, checks, attempted, info = timed_run(
                workloads, args.workload, args.seed, args.seconds)
    except Exception:  # noqa: BLE001 - any failure fails the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    correct = all(checks.values())
    print_table(args.workload, metrics, units, rep, bool(args.trace),
                spec["op"])
    for check, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    print(f"  digest {rep.digest}")
    report = {"provenance": provenance, "run_wall_s":
              time.perf_counter() - started, "info": info,
              "sim": rep.sim, "digest": rep.digest, "checks": checks,
              "metrics": metrics}
    print("report: " + json.dumps(report, sort_keys=True, default=repr))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
