"""Seeded end-to-end checks for the flow-record datapath.

Fluid mode is the one datapath switch left: it collapses per-packet
events of an elephant run into run descriptors, so it must preserve
every traffic aggregate of the burst pipeline, and it must be a no-op on
CRR traffic, which never forms runs. The telemetry stack forces span
materialization boundaries, which must change nothing measurable. The
golden digests in ``tests/test_golden_offload.py`` pin the outputs these
runs are checked against, and the rows the boxed-state, generator-job
datapath rendered (``LEGACY_*_ROWS``) stand in for the flow-record
datapath's deleted off side.
"""

import pytest

from repro import telemetry
from repro.vswitch.flow_records import FluidMode

from tests.test_golden_offload import (FIG9_SMALL_KWARGS, FIG9_SMALL_SHA256,
                                       FIG12_SMALL_KWARGS,
                                       FIG12_SMALL_SHA256,
                                       LEGACY_FIG9_SMALL_ROWS,
                                       LEGACY_FIG12_SMALL_ROWS,
                                       _elephant_totals, _sha256)


@pytest.fixture
def fluid_mode():
    """Callable setting :attr:`FluidMode.enabled`; restored afterwards."""
    saved = FluidMode.enabled

    def enable(fluid: bool) -> None:
        FluidMode.enabled = fluid

    yield enable
    FluidMode.enabled = saved


def test_fig9_table_identical_with_and_without_flow_records():
    """Flow records composed with telemetry: the records flush at every
    span boundary the profiler forces, and the rows still match the
    boxed-state datapath's."""
    from repro.experiments import fig9
    telemetry.install(profile=True)
    try:
        records = fig9.run(**FIG9_SMALL_KWARGS)
    finally:
        telemetry.uninstall()
    assert records.rows == LEGACY_FIG9_SMALL_ROWS


def test_fig12_table_identical_with_and_without_flow_records(fluid_mode):
    """Flow records composed with fluid mode: CRR probes and load never
    form runs, so the rows match the boxed-state datapath's."""
    from repro.experiments import fig12
    fluid_mode(True)
    records = fig12.run(**FIG12_SMALL_KWARGS)
    assert records.rows == LEGACY_FIG12_SMALL_ROWS


def test_fig9_table_identical_with_fluid_mode(fluid_mode):
    """CRR traffic never forms runs, so fluid mode must be a no-op on
    fig9 — the golden table byte for byte, not merely statistically
    close."""
    from repro.experiments import fig9
    fluid_mode(True)
    fluid = fig9.run(**FIG9_SMALL_KWARGS)
    assert _sha256(fluid.to_text()) == FIG9_SMALL_SHA256


def test_fig12_identical_with_telemetry_installed():
    """Observation purity composed with the flow-record datapath: the
    telemetry stack forces span materialization boundaries, which must
    change nothing measurable."""
    from repro.experiments import fig12
    telemetry.install(profile=True)
    try:
        observed = fig12.run(**FIG12_SMALL_KWARGS)
    finally:
        telemetry.uninstall()
    assert _sha256(observed.to_text()) == FIG12_SMALL_SHA256


def test_elephant_fluid_totals_identical():
    fluid = _elephant_totals(fluid=True)
    burst = _elephant_totals(fluid=False)
    assert fluid == burst
    assert fluid["sent"] > 200  # the pipeline actually pumped
