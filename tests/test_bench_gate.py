"""The micro-bench smoke gate (``tools/bench.py::check_regressions``).

Every bench is gated on calibration-normalized throughput: a drop beyond
the baseline entry's ``gate_tolerance`` (or the run-wide tolerance)
fails, a drop within it passes, and a baseline bench missing from the
run fails.
"""

import importlib.util
from pathlib import Path

import pytest

_BENCH_PY = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def check_regressions():
    spec = importlib.util.spec_from_file_location("tools_bench", _BENCH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_regressions


BASELINE = {"benches": {
    "tight": {"normalized": 1.0, "gate_tolerance": 0.20},
    "loose": {"normalized": 2.0},
}}


def _run(tight, loose):
    return {"tight": {"normalized": tight}, "loose": {"normalized": loose},
            "_calibration_ops_per_sec": 1e7}


def test_drop_beyond_entry_tolerance_fails(check_regressions):
    failures = check_regressions(_run(0.79, 2.0), BASELINE, 0.30)
    assert len(failures) == 1 and failures[0].startswith("tight:")
    # The run-wide tolerance covers entries without their own.
    failures = check_regressions(_run(1.0, 1.39), BASELINE, 0.30)
    assert len(failures) == 1 and failures[0].startswith("loose:")


def test_drop_within_tolerance_passes(check_regressions):
    assert check_regressions(_run(0.81, 1.41), BASELINE, 0.30) == []
    assert check_regressions(_run(5.0, 9.0), BASELINE, 0.30) == []


def test_bench_missing_from_run_fails(check_regressions):
    run = _run(1.0, 2.0)
    del run["loose"]
    failures = check_regressions(run, BASELINE, 0.30)
    assert failures == ["loose: bench disappeared from the suite"]
