"""Seeded end-to-end determinism: the fast-path optimizations must not
change a single simulation output.

The slow-path caches, bucketed ACL, memoized packets and the engine's
same-time micro-queue have no off switch; their unoptimized side is the
rows the legacy datapath rendered (``LEGACY_*_ROWS``). The micro-queue
still has a live reference: :class:`tests.conftest.PureHeapEngine`, a
pure ``(time, seq)`` heap. These tests run scaled-down fig9/fig12
experiments on both engines and require *identical* result rows, equal
to the legacy ones.
"""

import pytest

import repro.experiments.testbed as testbed
from tests.conftest import PureHeapEngine
from tests.test_golden_offload import (FIG9_SMALL_KWARGS, FIG12_SMALL_KWARGS,
                                       LEGACY_FIG9_SMALL_ROWS,
                                       LEGACY_FIG12_SMALL_ROWS)


@pytest.fixture
def pure_heap_testbed(monkeypatch):
    """Callable making every testbed built afterwards run on
    :class:`PureHeapEngine` instead of the micro-queue engine."""
    def enable() -> None:
        monkeypatch.setattr(testbed, "Engine", PureHeapEngine)
    return enable


def test_fig9_table_identical_with_and_without_optimizations(
        pure_heap_testbed):
    from repro.experiments import fig9
    optimized = fig9.run(**FIG9_SMALL_KWARGS)
    pure_heap_testbed()
    reference = fig9.run(**FIG9_SMALL_KWARGS)
    assert optimized.rows == reference.rows == LEGACY_FIG9_SMALL_ROWS


def test_fig12_table_identical_with_and_without_optimizations(
        pure_heap_testbed):
    from repro.experiments import fig12
    optimized = fig12.run(**FIG12_SMALL_KWARGS)
    pure_heap_testbed()
    reference = fig12.run(**FIG12_SMALL_KWARGS)
    assert optimized.rows == reference.rows == LEGACY_FIG12_SMALL_ROWS
