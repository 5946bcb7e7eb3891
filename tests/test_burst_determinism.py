"""Seeded end-to-end determinism for the burst datapath.

Every send routes through the burst machinery — classify-run, batched
CPU charge, coalesced heap entry — so single packets exercise every
burst layer. The per-packet datapath it replaced is gone; its side is
the rows it rendered (``LEGACY_*_ROWS``). These tests run scaled-down
fig9/fig12 experiments through the process-pool sweep (``--jobs 2``),
whose workers re-import every module, and require rows *identical* to
the per-packet ones.
"""

from tests.test_golden_offload import (FIG9_SMALL_KWARGS, FIG12_SMALL_KWARGS,
                                       LEGACY_FIG9_SMALL_ROWS,
                                       LEGACY_FIG12_SMALL_ROWS)


def test_fig9_table_identical_with_and_without_bursting():
    from repro.experiments import fig9
    batched = fig9.run(jobs=2, **FIG9_SMALL_KWARGS)
    assert batched.rows == LEGACY_FIG9_SMALL_ROWS


def test_fig12_table_identical_with_and_without_bursting():
    from repro.experiments import fig12
    batched = fig12.run(jobs=2, **FIG12_SMALL_KWARGS)
    assert batched.rows == LEGACY_FIG12_SMALL_ROWS
