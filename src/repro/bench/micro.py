"""Microbenchmarks over the per-packet hot paths.

Each :class:`MicroBench` builds a workload once and exposes one op: the
datapath exactly as every experiment runs it. A bench's throughput is
normalized by the speed of a fixed pure-python calibration loop, sampled
right before and right after that bench, so the normalized number
transfers across machines and across drifts in host speed within one
run. The CI smoke gate compares it against the committed
``BENCH_fastpath.json`` (see ``tools/bench.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.fabric.device import ServerNode
from repro.fabric.link import Link
from repro.metrics.percentiles import percentile_summary
from repro.net.addr import IPv4Address, MacAddress
from repro.net.five_tuple import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.packet import Packet, make_underlay_transport
from repro.sim.engine import Engine
from repro.sim.resources import MemoryBudget
from repro.vswitch.actions import Direction, Verdict
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import (AclRule, AclTable, LookupContext,
                                       MappingEntry)
from repro.vswitch.session_table import EntryMode, SessionTable
from repro.vswitch.vnic import Vnic
from repro.vswitch.vswitch import VSwitch, make_standard_chain


@dataclass
class MicroBench:
    """One benchmark: a setup returning (op, ops per call)."""

    name: str
    description: str
    setup: Callable[[], Tuple[Callable[[], object], int]]


# -- workload builders -------------------------------------------------------


def _dense_acl_rules(n_rules: int, seed: int = 7) -> List[AclRule]:
    """Rules spread across (proto, direction) that no probe matches, so a
    verdict pays the worst case: a full candidate scan to the default."""
    rng = random.Random(seed)
    rules = []
    protos = (PROTO_TCP, PROTO_UDP, PROTO_ICMP)
    directions = (Direction.TX, Direction.RX, None)
    for i in range(n_rules):
        rules.append(AclRule(
            priority=i % 37,
            verdict=Verdict.DROP,
            direction=directions[i % 3],
            proto=protos[i % 3],
            src_prefix=IPv4Address(rng.getrandbits(32)),
            src_prefix_len=30,
            dst_port_range=(0, 0),      # probes use port 80: never matches
        ))
    return rules


def _probe_tuples(count: int, seed: int = 11) -> List[FiveTuple]:
    rng = random.Random(seed)
    return [FiveTuple(IPv4Address(rng.getrandbits(32)),
                      IPv4Address("10.0.0.2"),
                      PROTO_TCP, rng.randrange(1024, 65536), 80)
            for _ in range(count)]


def _setup_slow_path_lookup():
    cost_model = CostModel()
    acl = AclTable(_dense_acl_rules(240))
    chain = make_standard_chain(cost_model, acl=acl)
    mapping = chain.table("vnic_server_mapping")
    mapping.set_entry(7, IPv4Address("10.0.0.2"),
                      MappingEntry(IPv4Address("172.16.0.2"), MacAddress(2),
                                   vni=7))
    contexts = [LookupContext(ft, vni=7, packet_bytes=64)
                for ft in _probe_tuples(32)]

    def op() -> object:
        out = None
        for ctx in contexts:
            out = chain.lookup(ctx)
        return out

    return op, len(contexts)


def _setup_acl_verdict():
    acl = AclTable(_dense_acl_rules(240))
    probes = _probe_tuples(32)

    def op() -> object:
        out = None
        for ft in probes:
            out = acl._verdict(ft, Direction.TX)
            out = acl._verdict(ft.reversed(), Direction.RX)
        return out

    op()                             # build the buckets outside the clock
    return op, len(probes) * 2


def _setup_session_table():
    cost_model = CostModel()
    mem = MemoryBudget(64 * 1024 * 1024)
    table = SessionTable(mem, cost_model)
    tuples = _probe_tuples(256, seed=23)

    def op() -> object:
        for ft in tuples:
            table.insert(7, ft, None, None, 0.0, EntryMode.FLOWS_ONLY)
        hit = None
        for ft in tuples:
            hit = table.lookup(7, ft)
        for ft in tuples:
            table.remove(7, ft)
        return hit

    return op, len(tuples) * 3


def _setup_engine_dispatch():
    n_dispatch = 2000

    def op() -> object:
        engine = Engine()
        # Background future work keeps the heap non-trivial, as in a real
        # run where timers and links always have pending entries.
        for i in range(64):
            engine.call_at(1e6 + i, float)
        state = {"count": 0}

        def tick() -> None:
            state["count"] += 1
            if state["count"] < n_dispatch:
                engine.call_soon(tick)

        def proc():
            for _ in range(50):
                yield None           # cooperative yield -> call_soon

        for _ in range(4):
            engine.process(proc())
        engine.call_soon(tick)
        engine.run(until=1.0)
        return state["count"]

    return op, n_dispatch + 200


def _setup_packet_codec():
    inner = Packet.tcp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                       1234, 80, payload=b"x" * 64)
    wrapped = make_underlay_transport(
        MacAddress(1), MacAddress(2), IPv4Address("172.16.0.1"),
        IPv4Address("172.16.0.2"), inner, vni=7)
    wire = wrapped.encode()
    batch = 16

    def op() -> object:
        out = None
        for _ in range(batch):
            out = Packet.decode(wire, first_layer="ethernet").encode()
        assert out == wire
        return out

    return op, batch


def _setup_packet_copy_fivetuple():
    inner = Packet.tcp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                       1234, 80, payload=b"x" * 64)
    wrapped = make_underlay_transport(
        MacAddress(1), MacAddress(2), IPv4Address("172.16.0.1"),
        IPv4Address("172.16.0.2"), inner, vni=7)
    batch = 32

    def op() -> object:
        out = None
        for _ in range(batch):
            hop = wrapped.copy()
            out = (hop.five_tuple(), hop.five_tuple(),
                   hop.wire_length, hop.wire_length)
        return out

    return op, batch


def _setup_link_burst_transmit():
    engine = Engine()
    sender = ServerNode(engine, "bench-a", IPv4Address("172.16.9.1"),
                        MacAddress(0xA1))
    receiver = ServerNode(engine, "bench-b", IPv4Address("172.16.9.2"),
                          MacAddress(0xA2))
    Link(engine, sender.free_port(), receiver.free_port())
    inner = Packet.tcp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                       1234, 80, payload=b"x" * 256)
    wrapped = make_underlay_transport(
        MacAddress(1), MacAddress(2), IPv4Address("172.16.9.1"),
        IPv4Address("172.16.9.2"), inner, vni=7)
    burst = [wrapped.copy() for _ in range(32)]

    def op() -> object:
        sender.send_to_fabric_burst(burst)
        engine.run()
        return receiver.rx_packets

    return op, len(burst)


def _setup_flow_record_hit():
    engine = Engine()
    server = ServerNode(engine, "bench-s", IPv4Address("172.16.9.9"),
                        MacAddress(0xA9))
    cost_model = CostModel()
    vswitch = VSwitch(engine, server, cost_model)
    vnic = Vnic(1, 7, IPv4Address("10.0.0.2"), MacAddress(2),
                make_standard_chain(cost_model))
    vswitch.add_vnic(vnic)
    vnic.attach_guest(lambda pkt: None)
    datapath = vswitch.datapath_for(vnic)
    pkt = Packet.udp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                     4242, 5353, payload=b"x" * 256)
    datapath.handle_rx(vnic, pkt)
    engine.run()
    assert vswitch.stats.delivered == 1
    burst = [pkt.copy() for _ in range(32)]

    def op() -> object:
        datapath.handle_rx_burst(vnic, burst)
        engine.run()
        return vswitch.stats.delivered

    return op, len(burst)


def _setup_fluid_fastforward():
    engine = Engine()
    server = ServerNode(engine, "bench-s", IPv4Address("172.16.9.9"),
                        MacAddress(0xA9))
    cost_model = CostModel()
    vswitch = VSwitch(engine, server, cost_model)
    vnic = Vnic(1, 7, IPv4Address("10.0.0.2"), MacAddress(2),
                make_standard_chain(cost_model))
    vswitch.add_vnic(vnic)
    # A run-aware guest: fluid delivery stays one descriptor end-to-end.
    vnic.attach_guest(lambda pkt: None, lambda pkt, n: None)
    datapath = vswitch.datapath_for(vnic)
    pkt = Packet.udp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                     4242, 5353, payload=b"x" * 256)
    datapath.handle_rx(vnic, pkt)
    engine.run()
    assert vswitch.stats.delivered == 1
    run_len = 32

    def op() -> object:
        datapath.handle_rx_run(vnic, pkt, run_len)
        engine.run()
        return vswitch.stats.delivered

    return op, run_len


#: Simulated time one benched connection gets: an unloaded offloaded
#: SYN→FIN exchange (~18 ms, mostly VM kernel time) completes inside it.
CRR_CONNECTION_SLICE = 0.025


def _setup_crr_connection():
    from repro.experiments.testbed import SERVER_IP, build_testbed
    testbed = build_testbed(n_clients=1, n_idle=1, seed=0)
    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches)
    testbed.run(1.0)
    assert handle.completed_at is not None
    engine = testbed.engine
    app = testbed.client_apps[0]

    def op() -> object:
        # One CRR transaction against the offloaded server vNIC: every
        # segment crosses the BE↔FE hop (client → FE → BE → VM and back).
        conn = app.open(SERVER_IP, 80)
        engine.run(until=engine.now + CRR_CONNECTION_SLICE)
        assert conn.completed_at is not None
        return conn

    return op, 1


def _setup_percentile_summary():
    rng = random.Random(5)
    data = [rng.expovariate(1.0) for _ in range(4000)]

    def op() -> object:
        return percentile_summary(data)

    return op, 1


BENCHES: Tuple[MicroBench, ...] = (
    MicroBench("slow_path_lookup",
               "full 5-table chain lookup, 240 ACL rules (Table A1's op)",
               _setup_slow_path_lookup),
    MicroBench("acl_verdict",
               "ACL verdict for both directions, 240 rules, worst-case miss",
               _setup_acl_verdict),
    MicroBench("session_table",
               "session-table insert + exact-match hit + remove",
               _setup_session_table),
    MicroBench("engine_dispatch",
               "same-time callback dispatch with a non-trivial heap",
               _setup_engine_dispatch),
    MicroBench("packet_codec",
               "VXLAN overlay packet decode+encode round trip",
               _setup_packet_codec),
    MicroBench("packet_copy_fivetuple",
               "per-hop packet copy + repeated flow-key/wire-length reads",
               _setup_packet_copy_fivetuple),
    MicroBench("percentile_summary",
               "avg/P50..P9999 summary over 4000 samples",
               _setup_percentile_summary),
    MicroBench("link_burst_transmit",
               "32-packet burst over one link",
               _setup_link_burst_transmit),
    MicroBench("flow_record_hit",
               "32-packet same-flow RX burst through the vSwitch fast "
               "path, charged to array-backed flow records",
               _setup_flow_record_hit),
    MicroBench("fluid_fastforward",
               "32-packet fluid run (one descriptor end-to-end)",
               _setup_fluid_fastforward),
    MicroBench("crr_connection",
               "one offloaded TCP CRR connection, SYN to FIN, through "
               "BE->FE->BE",
               _setup_crr_connection),
)


# -- measurement --------------------------------------------------------------


def _ops_per_sec(fn: Callable[[], object], ops_per_call: int,
                 target_seconds: float) -> float:
    fn()                              # warmup / lazy-build outside the clock
    calls = 1
    while True:
        start = perf_counter()
        for _ in range(calls):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= target_seconds:
            return calls * ops_per_call / elapsed
        calls *= 2


def calibration_loop() -> int:
    """A fixed pure-python loop used to normalize ops/sec across machines."""
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) & 0xFFFFFF
    return acc


#: Calibration-loop calls per host-speed sample (~20 ms).
CALIBRATION_CALLS = 20


def host_speed() -> float:
    """Calibration-loop iterations per second, measured now."""
    start = perf_counter()
    for _ in range(CALIBRATION_CALLS):
        calibration_loop()
    return CALIBRATION_CALLS * 10_000 / (perf_counter() - start)


def run_bench(bench: MicroBench,
              target_seconds: float = 0.25) -> Dict[str, object]:
    """Measure one bench. Its throughput is normalized by the mean host
    speed sampled right before and right after it, so a host that slows
    down or speeds up between benches moves no normalized number."""
    op, ops = bench.setup()
    before = host_speed()
    ops_per_sec = _ops_per_sec(op, ops, target_seconds)
    calibration = (before + host_speed()) / 2
    return {
        "description": bench.description,
        "ops_per_sec": ops_per_sec,
        "calibration_ops_per_sec": calibration,
        "normalized": ops_per_sec / calibration,
    }


def run_all(target_seconds: float = 0.25) -> Dict[str, Dict]:
    results: Dict[str, Dict] = {}
    for bench in BENCHES:
        results[bench.name] = run_bench(bench, target_seconds)
    samples = [entry["calibration_ops_per_sec"] for entry in results.values()]
    results["_calibration_ops_per_sec"] = sum(samples) / len(samples)
    return results
