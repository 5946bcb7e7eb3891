"""Edge cases of burst run classification against pinned replays.

Each scenario drives a burst through the array-backed flow-record
datapath and requires the vSwitch counters on both ends *and* the flow
statistics (after the records are materialized back into the boxed
SessionState) to equal the values a burst replay and a per-packet
replay without flow records produced. Those replays were pinned from the
pre-flow-records datapath, which the codebase no longer carries.
"""

from dataclasses import asdict

import pytest

from repro.net import Packet, TcpFlags
from repro.vswitch import TcpState
from repro.vswitch.session_table import EntryMode
from repro.vswitch.state import StatsPolicy

from tests.conftest import TENANT_A, TENANT_B, VNI, build_cloud


def ack(flags=("ack",), payload=b"d" * 100):
    return Packet.tcp(TENANT_A, TENANT_B, 1000, 80, TcpFlags.of(*flags),
                      payload)


def udp(sport=4242):
    return Packet.udp(TENANT_A, TENANT_B, sport, 5353, payload=b"x" * 64)


def _flow_counters(vswitch, ft, timestamps=True):
    """Flow statistics with any slot residue materialized first.

    ``last_seen`` is only comparable between configurations that share
    the CPU charging shape: a batched run completes as one serialized
    transaction while per-packet jobs spread across cores, so against
    the fully per-packet replay the timestamp is excluded (counters and
    FSM must still match exactly)."""
    entry = vswitch.session_table.lookup(VNI, ft)
    if entry is None:
        return None
    state = entry.state
    if entry.slot >= 0:
        vswitch.session_table.records.flush(entry.slot, state)
    stats = (state.packets_tx, state.packets_rx, state.bytes_tx,
             state.bytes_rx, state.tcp_state)
    return stats + (state.last_seen,) if timestamps else stats


def _established_cloud():
    """A cloud with flow A's TCP session established end to end and a
    FULL stats policy installed on the initiator side."""
    cloud = build_cloud()
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vnic_a.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                                 TcpFlags.of("syn")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_b.send_from_vnic(
        cloud.vnic_b, Packet.tcp(TENANT_B, TENANT_A, 80, 1000,
                                 TcpFlags.of("syn", "ack")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, ack(payload=b""))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    entry = cloud.vswitch_a.session_table.lookup(VNI, ack().five_tuple())
    assert entry.state.tcp_state is TcpState.ESTABLISHED
    entry.state.stats_policy = StatsPolicy.FULL
    return cloud


def _scenario_fsm_split(timestamps):
    """A run split exactly at an FSM-advancing packet: the FIN must leave
    the batch, advance the FSM once, in order, and the trailing ACKs must
    be classified against the post-FIN state."""
    cloud = _established_cloud()
    burst = [ack(), ack(), ack(flags=("fin", "ack")), ack(), ack()]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    return (asdict(cloud.vswitch_a.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(cloud.vswitch_a, ack().five_tuple(), timestamps),
            _flow_counters(cloud.vswitch_b, ack().five_tuple(), timestamps))


def _scenario_state_only_mid_run(timestamps):
    """A STATE_ONLY residue hit in the middle of a burst: the packet must
    take the per-packet promote path while the runs around it stay
    aggregated."""
    cloud = _established_cloud()
    # Prime the UDP flow, then demote the tenant: every FULL entry (the
    # TCP flow included) becomes a STATE_ONLY residue with its record
    # slot flushed.
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, udp())
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_a.session_table.demote_vni(VNI)
    udp_entry = cloud.vswitch_a.session_table.lookup(VNI, udp().five_tuple())
    assert udp_entry.mode is EntryMode.STATE_ONLY
    burst = [ack(), ack(), udp(), ack(), ack()]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    return (asdict(cloud.vswitch_a.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(cloud.vswitch_a, ack().five_tuple(), timestamps),
            _flow_counters(cloud.vswitch_a, udp().five_tuple(), timestamps))


def _scenario_demotion_between_runs(timestamps):
    """Demotion landing between two runs of one burst: the first run
    forwards, the second was charged against the old entry and must be
    dropped at completion — the same fate its packets meet per-packet."""
    cloud = _established_cloud()
    vs = cloud.vswitch_a
    orig_burst = vs.server.send_to_fabric_burst
    orig_single = vs.server.send_to_fabric
    progress = {"fwd": 0, "tripped": False}

    def trip():
        if not progress["tripped"] and progress["fwd"] >= 2:
            progress["tripped"] = True
            vs.session_table.demote_vni(VNI)

    def burst_hook(packets):
        out = orig_burst(packets)
        progress["fwd"] += len(packets)
        trip()
        return out

    def single_hook(packet):
        out = orig_single(packet)
        progress["fwd"] += 1
        trip()
        return out

    vs.server.send_to_fabric_burst = burst_hook
    vs.server.send_to_fabric = single_hook
    burst = [ack(), ack(), udp(sport=7), ack(), ack()]
    vs.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    assert progress["tripped"]
    return (asdict(vs.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(vs, ack().five_tuple(), timestamps))


_SCENARIOS = [
    _scenario_fsm_split,
    _scenario_state_only_mid_run,
    _scenario_demotion_between_runs,
]
_IDS = ["fsm_split", "state_only_mid_run", "demotion_between_runs"]


#: Counters and flow statistics of each scenario, identical on the burst
#: and the per-packet replay: (vSwitch A nonzero stats, vSwitch B nonzero
#: stats, flow counters...), each flow as (packets tx/rx, bytes tx/rx,
#: TCP state).
_REPLAYED = {
    "fsm_split": (
        {"tx_packets": 7, "rx_packets": 1, "forwarded": 7, "delivered": 1,
         "slow_path_lookups": 1, "fast_path_hits": 7},
        {"tx_packets": 1, "rx_packets": 7, "forwarded": 1, "delivered": 7,
         "slow_path_lookups": 1, "fast_path_hits": 7},
        (5, 0, 700, 0, TcpState.FIN_WAIT),
        (0, 0, 0, 0, TcpState.FIN_WAIT)),
    "state_only_mid_run": (
        {"tx_packets": 8, "rx_packets": 1, "forwarded": 8, "delivered": 1,
         "slow_path_lookups": 4, "fast_path_hits": 5},
        {"tx_packets": 1, "rx_packets": 8, "forwarded": 1, "delivered": 8,
         "slow_path_lookups": 2, "fast_path_hits": 7},
        (4, 0, 560, 0, TcpState.ESTABLISHED),
        (0, 0, 0, 0, TcpState.NONE)),
    "demotion_between_runs": (
        {"tx_packets": 7, "rx_packets": 1, "forwarded": 4, "delivered": 1,
         "cpu_drops": 3, "slow_path_lookups": 2, "fast_path_hits": 6},
        {"tx_packets": 1, "rx_packets": 4, "forwarded": 1, "delivered": 4,
         "slow_path_lookups": 1, "fast_path_hits": 4},
        (2, 0, 280, 0, TcpState.ESTABLISHED)),
}

#: Each flow's ``last_seen`` on the burst replay, which charges a run as
#: one CPU transaction exactly like the flow-record datapath does.
_BURST_LAST_SEEN = {
    "fsm_split": (0.30003230000000003, 0.30005453160000006),
    "state_only_mid_run": (0.40173613333333336, 0.40173477333333335),
    "demotion_between_runs": (0.30003230000000003,),
}


def _nonzero(result):
    """The scenario result with zero-valued vSwitch counters dropped."""
    return tuple({k: v for k, v in item.items() if v}
                 if isinstance(item, dict) else item for item in result)


@pytest.mark.parametrize("scenario", _SCENARIOS, ids=_IDS)
def test_edge_case_identical_to_burst_replay(scenario):
    """Against the burst replay: everything matches, completion
    timestamps included."""
    name = _IDS[_SCENARIOS.index(scenario)]
    stats_a, stats_b, *flows = _REPLAYED[name]
    expected = (stats_a, stats_b) + tuple(
        flow + (seen,) for flow, seen in zip(flows, _BURST_LAST_SEEN[name]))
    assert _nonzero(scenario(timestamps=True)) == expected


@pytest.mark.parametrize("scenario", _SCENARIOS, ids=_IDS)
def test_edge_case_identical_to_per_packet_replay(scenario):
    """Against the per-packet replay: counters, drops and FSM match
    exactly; completion timestamps follow the CPU charging shape (one
    serialized transaction per run vs per-packet jobs across cores) and
    are excluded."""
    name = _IDS[_SCENARIOS.index(scenario)]
    assert _nonzero(scenario(timestamps=False)) == _REPLAYED[name]
