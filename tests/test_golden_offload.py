"""Golden digests for the simulated datapath.

On/off identity tests compare two runs of the *same* commit, so a change
that moves both sides together goes unnoticed. These pin the outputs of
the paper's CPS, latency and failover experiments across commits
instead: the sha256 of fig9's ``--fast`` result table, of one fig14
failover point (sorted-key JSON), of scaled-down fig9/fig12 tables and
of an elephant burst pipeline's traffic aggregates.

A change that moves any digest must re-bless it here and say why in
CHANGES.md.
"""

import hashlib
import json
from dataclasses import asdict

from repro.host.vm import Vm
from repro.vswitch.flow_records import FluidMode
from repro.workloads.elephant import ElephantFlow

from tests.conftest import TENANT_B, build_cloud

FIG9_FAST_SHA256 = (
    "a5a43a342a3c94936c78ed16c841b423bc08a16940fc3bee528075a9caa8d963")
FIG14_POINT = (1.0, 2.5, 0.5, 0.4, 0)
FIG14_POINT_SHA256 = (
    "6076e35f8548f014a6c895aa8ef257b0ba936b76e22982008447a069931fbf49")
FIG9_SMALL_KWARGS = dict(fe_counts=(0, 2), duration=0.4, warmup=0.2,
                         concurrency_per_client=8, seed=3)
FIG9_SMALL_SHA256 = (
    "888fc943206000686ce4282639b730af5b1e44fdcb1e893a1c4fdb4dc59b6cd0")
FIG12_SMALL_KWARGS = dict(load_levels=(8,), seed=2)
FIG12_SMALL_SHA256 = (
    "569ef72087b24e5c52c9d5e2c175741872845f93b9a2dddbfa7830c628ebc56d")
ELEPHANT_TOTALS_SHA256 = (
    "2a36e9797d5765752c3c4bd4c090e516c2fa2d56a78b8681d0453cd985b94b64")

# The rows the legacy datapaths rendered for the scaled-down runs above,
# taken before those datapaths were deleted: the pure-heap engine with
# uncached slow path, unbucketed ACL and unmemoized packets; per-packet
# links and dispatch; boxed session state with generator CPU jobs. All
# three rendered exactly these rows.
LEGACY_FIG9_SMALL_ROWS = [
    {"n_fes": 0, "cps": 1420.0, "cps_gain": 1.0, "paper_cps_gain": 1.0,
     "flows_gain": 1.0, "paper_flows_gain": 1.0, "vnics_gain": 1.0},
    {"n_fes": 2, "cps": 1682.5, "cps_gain": 1.1848591549295775,
     "paper_cps_gain": 2.4, "flows_gain": 1.9010415077209473,
     "paper_flows_gain": 2.2, "vnics_gain": 2.0},
]
LEGACY_FIG12_SMALL_ROWS = [
    {"load_concurrency": 8, "cpu_without": 0.5290473333333401,
     "latency_without_us": 1573.6238933334866,
     "latency_with_us": 178.31885333219333,
     "extra_hop_us": -1395.3050400012935},
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _elephant_totals(fluid: bool):
    """Pump an elephant burst pipeline end to end, with
    :attr:`FluidMode.enabled` set to ``fluid``; return every traffic
    aggregate (packet/byte/drop counters on both vSwitches, delivery
    counts, fabric byte totals). Timestamps are deliberately absent:
    fluid mode collapses mid-run event times by design."""
    saved = FluidMode.enabled
    FluidMode.enabled = fluid
    try:
        return _pump_elephant()
    finally:
        FluidMode.enabled = saved


def _pump_elephant():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "pump", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    delivered = []
    cloud.vnic_b.attach_guest(delivered.append)
    elephant = ElephantFlow(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                            rate_pps=2000, burst=16).run(duration=0.5)
    cloud.engine.run(until=1.0)
    # Materialize any slot residue so session counters are comparable.
    for table in (cloud.vswitch_a.session_table,
                  cloud.vswitch_b.session_table):
        for entry in table:
            if entry.slot >= 0 and entry.state is not None:
                table.records.flush(entry.slot, entry.state)
    entry = cloud.vswitch_a.session_table.lookup(
        cloud.vnic_a.vni, elephant.five_tuple)
    return {
        "sent": elephant.sent,
        "stats_a": asdict(cloud.vswitch_a.stats),
        "stats_b": asdict(cloud.vswitch_b.stats),
        "rx_delivered": cloud.vnic_b.rx_delivered,
        "delivered_packets": len(delivered),
        "kernel_drops": vm.kernel_drops,
        "flow_counters": (entry.state.packets_tx, entry.state.bytes_tx,
                          entry.state.packets_rx, entry.state.bytes_rx),
    }


def test_fig9_fast_table_digest():
    from repro.experiments.runner import run_experiment
    result, _elapsed = run_experiment("fig9", seed=0, jobs=1, fast=True)
    assert _sha256(result.to_text()) == FIG9_FAST_SHA256


def test_fig14_failover_point_digest():
    from repro.experiments import fig14
    point = fig14.run_point(FIG14_POINT)
    assert _sha256(json.dumps(point, sort_keys=True)) == FIG14_POINT_SHA256


def test_fig9_small_table_digest():
    from repro.experiments import fig9
    result = fig9.run(**FIG9_SMALL_KWARGS)
    assert _sha256(result.to_text()) == FIG9_SMALL_SHA256


def test_fig12_small_table_digest():
    from repro.experiments import fig12
    result = fig12.run(**FIG12_SMALL_KWARGS)
    assert _sha256(result.to_text()) == FIG12_SMALL_SHA256


def test_elephant_burst_totals_digest():
    totals = _elephant_totals(fluid=False)
    assert totals["sent"] > 200  # the pipeline actually pumped
    assert (_sha256(json.dumps(totals, sort_keys=True))
            == ELEPHANT_TOTALS_SHA256)
