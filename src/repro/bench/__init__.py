"""Tracked benchmark definitions.

Two layers:

* **micro** — setups returning (op, ops per call) over the per-packet
  hot paths; ``tools/bench.py`` runs them, gates their
  calibration-normalized throughput and writes ``BENCH_fastpath.json``;
  ``benchmarks/test_micro.py`` runs the same ops under pytest-benchmark.
* **macro** — whole-experiment wall clocks, sequential vs process-pool
  (``tools/bench.py --experiments`` → ``BENCH_experiments.json``).
* **fleet** — fleet-scale wall clock + tracemalloc peak per scale point
  (``tools/bench.py --fleet`` → ``BENCH_fleet.json``).

Keeping the workloads in one package guarantees the tracked JSONs and
the pytest benches measure the same thing.
"""

from repro.bench.micro import (BENCHES, MicroBench, calibration_loop,
                               run_bench, run_all)
from repro.bench.macro import (MACRO_BENCHES, MacroBench, run_macro,
                               run_macro_bench, run_telemetry_overhead)
from repro.bench.fleet import (run_fleet_point, run_fleet_smoke,
                               run_fleet_suite,
                               run_fleet_telemetry_overhead)

__all__ = ["BENCHES", "MicroBench", "calibration_loop", "run_bench",
           "run_all", "MACRO_BENCHES", "MacroBench", "run_macro",
           "run_macro_bench", "run_telemetry_overhead",
           "run_fleet_point", "run_fleet_smoke", "run_fleet_suite",
           "run_fleet_telemetry_overhead"]
