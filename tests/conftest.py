"""Shared test fixtures: a minimal two-server overlay cloud, and a
pure-heap reference scheduler for the engine."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

import pytest

from repro.errors import SimulationError
from repro.fabric import Topology
from repro.net import IPv4Address, MacAddress
from repro.sim import Engine
from repro.vswitch import CostModel, MappingTable, Vnic, VSwitch
from repro.vswitch.rule_tables import MappingEntry
from repro.vswitch.vswitch import make_standard_chain

VNI = 100
TENANT_A = IPv4Address("192.168.0.1")
TENANT_B = IPv4Address("192.168.0.2")


class PureHeapEngine(Engine):
    """Reference scheduler for the engine's same-time micro-queue and
    batch entries: every callback, same-instant ones included, is its own
    ``(time, seq)`` heap entry, so dispatch follows that total order and
    nothing else."""

    def call_at(self, when, fn, *args):
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def call_soon(self, fn, *args):
        self.call_at(self._now, fn, *args)

    def call_at_batch(self, items):
        for when, fn, args in items:
            self.call_at(when, fn, *args)


@dataclass
class Cloud:
    """Two servers under one ToR, one vNIC each, mappings prewired."""

    engine: Engine
    topo: Topology
    vswitch_a: VSwitch
    vswitch_b: VSwitch
    vnic_a: Vnic
    vnic_b: Vnic
    cost_model: CostModel


def wire_mapping(mapping: MappingTable, vni: int, tenant_ip, server) -> None:
    mapping.set_entry(vni, tenant_ip, MappingEntry(
        underlay_ip=server.underlay_ip, underlay_mac=server.mac, vni=vni))


def build_cloud(engine=None, cost_model=None, n_tors=1, servers_per_tor=2,
                acl_a=None, acl_b=None) -> Cloud:
    engine = engine or Engine()
    cost_model = cost_model or CostModel.testbed()
    topo = Topology.leaf_spine(engine, n_tors=n_tors,
                               servers_per_tor=servers_per_tor)
    server_a, server_b = topo.servers[0], topo.servers[1]
    vswitch_a = VSwitch(engine, server_a, cost_model)
    vswitch_b = VSwitch(engine, server_b, cost_model)

    chain_a = make_standard_chain(cost_model, acl=acl_a)
    chain_b = make_standard_chain(cost_model, acl=acl_b)
    # Each side's mapping table knows where the peer lives (wired before
    # hosting so the memory charge reflects the populated tables).
    wire_mapping(chain_a.table("vnic_server_mapping"), VNI, TENANT_B, server_b)
    wire_mapping(chain_a.table("vnic_server_mapping"), VNI, TENANT_A, server_a)
    wire_mapping(chain_b.table("vnic_server_mapping"), VNI, TENANT_A, server_a)
    wire_mapping(chain_b.table("vnic_server_mapping"), VNI, TENANT_B, server_b)

    vnic_a = Vnic(1, VNI, TENANT_A, MacAddress(0xA1), chain_a)
    vnic_b = Vnic(2, VNI, TENANT_B, MacAddress(0xB1), chain_b)
    vswitch_a.add_vnic(vnic_a)
    vswitch_b.add_vnic(vnic_b)
    return Cloud(engine, topo, vswitch_a, vswitch_b, vnic_a, vnic_b, cost_model)


@pytest.fixture
def cloud() -> Cloud:
    return build_cloud()


@dataclass
class NezhaEnv:
    """A cloud with a gateway, learners, and a Nezha orchestrator."""

    engine: Engine
    topo: Topology
    vswitches: List[VSwitch]
    vnic_a: Vnic
    vnic_b: Vnic
    gateway: "object"
    learners: List["object"]
    orchestrator: "object"
    cost_model: CostModel

    @property
    def vswitch_a(self) -> VSwitch:
        return self.vswitches[0]

    @property
    def vswitch_b(self) -> VSwitch:
        return self.vswitches[1]

    @property
    def idle_vswitches(self) -> List[VSwitch]:
        return self.vswitches[2:]


def build_nezha_env(n_servers=6, acl_a=None, acl_b=None,
                    learner_interval=0.05, cost_model=None,
                    start_learners=True) -> NezhaEnv:
    from repro.controller.gateway import Gateway, MappingLearner
    from repro.controller.latency import ControlLatencyModel
    from repro.core.offload import NezhaOrchestrator, OffloadConfig
    from repro.sim import SeededRng
    from repro.vswitch.rule_tables import Location

    engine = Engine()
    cost_model = cost_model or CostModel.testbed()
    topo = Topology.leaf_spine(engine, n_tors=1, servers_per_tor=n_servers)
    vswitches = [VSwitch(engine, server, cost_model)
                 for server in topo.servers]
    gateway = Gateway(engine)

    chain_a = make_standard_chain(cost_model, acl=acl_a)
    chain_b = make_standard_chain(cost_model, acl=acl_b)
    vnic_a = Vnic(1, VNI, TENANT_A, MacAddress(0xA1), chain_a)
    vnic_b = Vnic(2, VNI, TENANT_B, MacAddress(0xB1), chain_b)
    vswitches[0].add_vnic(vnic_a)
    vswitches[1].add_vnic(vnic_b)

    server_a, server_b = topo.servers[0], topo.servers[1]
    gateway.set_locations(VNI, TENANT_A,
                          [Location(server_a.underlay_ip, server_a.mac)])
    gateway.set_locations(VNI, TENANT_B,
                          [Location(server_b.underlay_ip, server_b.mac)])

    rng = SeededRng(7, "nezha-env")
    learners = []
    for index, vswitch in enumerate(vswitches):
        learner = MappingLearner(engine, vswitch, gateway,
                                 interval=learner_interval,
                                 rng=rng.child(f"learner{index}"))
        learners.append(learner)
        if start_learners:
            learner.start()
    # Prime the two tenant-hosting vSwitches so traffic flows at t=0.
    learners[0].refresh()
    learners[1].refresh()

    config = OffloadConfig(learning_interval=learner_interval,
                           inflight_margin=0.01, sync_poll=0.005,
                           sync_timeout=2.0,
                           latency=ControlLatencyModel.fast())
    orchestrator = NezhaOrchestrator(engine, gateway,
                                     rng=rng.child("orch"), config=config)
    return NezhaEnv(engine, topo, vswitches, vnic_a, vnic_b, gateway,
                    learners, orchestrator, cost_model)


@pytest.fixture
def nezha_env() -> NezhaEnv:
    return build_nezha_env()
