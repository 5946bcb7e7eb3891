"""Fast-path microbenchmarks under pytest-benchmark.

These measure the exact same ops as ``tools/bench.py`` (both import
:data:`repro.bench.BENCHES`), so the pytest-benchmark tables and the
tracked ``BENCH_fastpath.json`` can be compared directly.

Run::

    PYTHONPATH=src python -m pytest benchmarks/test_micro.py
"""

import pytest

from repro.bench import BENCHES

_IDS = [b.name for b in BENCHES]


@pytest.mark.parametrize("bench", BENCHES, ids=_IDS)
def test_optimized(bench, benchmark):
    op, ops = bench.setup()
    benchmark.group = bench.name
    benchmark.extra_info["ops_per_call"] = ops
    benchmark.extra_info["description"] = bench.description
    benchmark(op)
