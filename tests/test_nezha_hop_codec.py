"""The lean BE↔FE hop: NSH codec properties, carried packet memos, and the
NSH context's size limit and read-only view.

The hop wrap hands the inner packet's memoized flow key to the wrapped
packet and computes its length in closed form; the NSH context memoizes
its encoding and tracks its size as TLVs are added. These tests pin that
every shortcut agrees with the slow, recomputed answer.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import (KIND_NOTIFY, KIND_RX, KIND_TX, HopEncap,
                               NezhaMeta, build_nezha_hop, unwrap_nezha_hop)
from repro.errors import DecodeError, PacketError
from repro.net import (FiveTuple, IPv4Address, MacAddress, NshContext,
                       NshHeader, Packet, TcpFlags)
from repro.net.packet import (EncapTemplate, make_underlay_transport,
                              strip_underlay_transport)
from repro.vswitch import (Direction, PreActions, SessionState, StatsPolicy,
                           Verdict)
from repro.vswitch.actions import PreAction
from repro.vswitch.rule_tables import Location
from repro.vswitch.tcp_fsm import TcpState

SRC_IP = IPv4Address("10.2.0.1")
SRC_MAC = MacAddress(1)
LOC = Location(IPv4Address("10.1.0.1"), MacAddress(0x42))

addresses = st.integers(0, (1 << 32) - 1).map(IPv4Address)
ports = st.integers(0, 0xFFFF)
policies = st.sampled_from(list(StatsPolicy))
verdicts = st.sampled_from(list(Verdict))


@st.composite
def session_states(draw):
    return SessionState(
        first_direction=draw(st.sampled_from([None, Direction.TX,
                                              Direction.RX])),
        tcp_state=draw(st.sampled_from(list(TcpState))),
        stats_policy=draw(policies),
        decap_overlay_src=draw(st.none() | addresses))


@st.composite
def pre_actions(draw):
    # Only what the 8-byte wire blob carries: both verdicts and ACL
    # markers, the RX policy (shared by TX) and the RX QoS class.
    rx = PreAction(verdict=draw(verdicts), stateful_acl=draw(st.booleans()),
                   stats_policy=draw(policies),
                   qos_class=draw(st.integers(0, 255)))
    tx = PreAction(verdict=draw(verdicts), stateful_acl=draw(st.booleans()),
                   stats_policy=rx.stats_policy)
    return PreActions(tx, rx)


five_tuples = st.builds(FiveTuple, addresses, addresses,
                        st.sampled_from([6, 17]), ports, ports)


@st.composite
def metas(draw):
    kind = draw(st.sampled_from([KIND_TX, KIND_RX, KIND_NOTIFY]))
    vnic_id = draw(st.integers(0, (1 << 32) - 1))
    if kind == KIND_TX:
        return NezhaMeta(kind=kind, vnic_id=vnic_id,
                         state=draw(session_states()))
    if kind == KIND_RX:
        return NezhaMeta(kind=kind, vnic_id=vnic_id,
                         pre_actions=draw(pre_actions()),
                         overlay_src=draw(st.none() | addresses))
    return NezhaMeta(kind=kind, vnic_id=vnic_id,
                     notify_five_tuple=draw(five_tuples),
                     notify_policy=draw(policies))


@st.composite
def inner_packets(draw):
    return Packet.tcp(draw(addresses), draw(addresses), draw(ports),
                      draw(ports), TcpFlags.of("ack"),
                      draw(st.binary(max_size=64)))


# -- NSH codec ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(metas(), inner_packets(), st.integers(0, (1 << 64) - 1))
def test_hop_codec_property(meta, inner, entropy):
    carries = meta.kind != KIND_NOTIFY
    hop = build_nezha_hop(SRC_IP, SRC_MAC, LOC, meta,
                          inner=inner if carries else None, entropy=entropy)
    wire = hop.encode()
    assert hop.wire_length == len(wire)
    assert Packet.decode(wire, "ethernet") == hop
    assert NezhaMeta.from_context(hop.nsh().context) == meta

    # A put() after encode() shows up in the next encode().
    ctx = hop.nsh().context
    before = ctx.encode()
    ctx.put(0x7F, b"late")
    after = ctx.encode()
    assert after != before
    assert NshContext.decode(after).get(0x7F) == b"late"
    hop.invalidate_flow_cache()  # the hop's own memos cover the old header
    assert hop.wire_length == len(hop.encode())
    assert Packet.decode(hop.encode(), "ethernet") == hop


def test_context_encode_memo_dropped_by_put_only():
    ctx = NshContext({NshContext.VNIC: b"\x00\x00\x00\x07"})
    first = ctx.encode()
    assert ctx.encode() is first
    ctx.put(NshContext.VNIC, b"\x00\x00\x00\x08")
    second = ctx.encode()
    assert second != first
    assert NshContext.decode(second).get(NshContext.VNIC) == b"\x00\x00\x00\x08"
    assert NshHeader(context=ctx).wire_length == 8 + len(second)


def test_context_wire_length_tracks_replaced_tlv():
    ctx = NshContext().put(1, b"a" * 9)
    ctx.put(1, b"b")
    assert ctx.wire_length == len(ctx.encode()) == 8


# -- NSH bugfixes: read-only entries, header size limit ------------------------------


def test_context_entries_are_read_only():
    ctx = NshContext({NshContext.STATE: b"\x01"})
    with pytest.raises(TypeError):
        ctx.entries[NshContext.STATE] = b"\x02"
    assert dict(ctx.entries) == {NshContext.STATE: b"\x01"}


def test_context_over_header_limit_rejected_at_construction():
    # 0x3F words = 252 B, minus the 8-byte base: 244 B of TLVs fit.
    fits = NshContext({1: b"x" * 240})                # 4 + 240 = 244 B
    assert NshHeader(context=fits).wire_length == 252
    assert len(NshHeader(context=fits).encode()) == 252
    with pytest.raises(DecodeError):
        NshContext({1: b"x" * 241})                   # 4 + 241 + 3 pad
    with pytest.raises(DecodeError):
        NshContext({1: b"x" * 240, 2: b""})


def test_context_put_over_header_limit_rejected():
    ctx = NshContext({1: b"x" * 240})
    before = ctx.encode()
    with pytest.raises(DecodeError):
        ctx.put(9, b"")
    assert ctx.encode() == before and 9 not in ctx
    with pytest.raises(DecodeError):
        ctx.put(1, b"x" * 241)
    assert ctx.encode() == before
    ctx.put(1, b"y" * 240)  # replacing a TLV frees its old size first
    assert len(NshHeader(context=ctx).encode()) == 252


def test_header_rejects_oversized_prevalidated_context():
    ctx = NshContext.prevalidated({1: b"x" * 250})
    with pytest.raises(DecodeError):
        NshHeader(context=ctx)


# -- carried memos ---------------------------------------------------------------------


def _inner():
    return Packet.tcp(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                      1000, 80, TcpFlags.of("syn"), b"data")


def _tx_meta():
    return NezhaMeta(kind=KIND_TX, vnic_id=9,
                     state=SessionState(first_direction=Direction.TX))


def test_hop_carries_flow_key_through_unwrap():
    inner = _inner()
    ft = inner.five_tuple()
    ft.hash()
    hop = build_nezha_hop(SRC_IP, SRC_MAC, LOC, _tx_meta(), inner=inner)
    assert hop._wire == (sum(layer.wire_length for layer in hop.layers)
                         + len(hop.payload))
    unwrap_nezha_hop(hop)
    assert hop.five_tuple() is ft
    fresh = FiveTuple(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                      6, 1000, 80)
    assert hop.five_tuple().hash() == fresh.hash()
    assert hop.wire_length == inner.wire_length
    assert hop.wire_length == (sum(layer.wire_length for layer in hop.layers)
                               + len(hop.payload))


def test_vxlan_wrap_carries_flow_key_and_length():
    inner = _inner()
    ft = inner.five_tuple()
    tmpl = EncapTemplate(SRC_MAC, MacAddress(2), SRC_IP,
                         IPv4Address("10.1.0.9"), vni=7)
    for wrapped in (tmpl.wrap(inner, 50000),
                    make_underlay_transport(SRC_MAC, MacAddress(2), SRC_IP,
                                            IPv4Address("10.1.0.9"), inner,
                                            vni=7, src_port=50000)):
        assert wrapped._ft is ft
        assert wrapped._wire == (sum(layer.wire_length
                                     for layer in wrapped.layers)
                                 + len(wrapped.payload))
        assert wrapped._wire == len(wrapped.encode())


def test_notify_unwrap_drops_outer_flow_key():
    meta = NezhaMeta(kind=KIND_NOTIFY, vnic_id=4,
                     notify_five_tuple=FiveTuple(SRC_IP, SRC_IP, 6, 1, 2),
                     notify_policy=StatsPolicy.NONE)
    hop = build_nezha_hop(SRC_IP, SRC_MAC, LOC, meta)
    hop.five_tuple()  # the outer IPv4/UDP: nothing inner to carry
    unwrap_nezha_hop(hop)
    assert hop._ft is None and hop._wire is None
    assert len(hop.layers) == 1 and hop.nsh() is not None


def test_vxlan_strip_keeps_flow_key():
    inner = _inner()
    ft = inner.five_tuple()
    wrapped = make_underlay_transport(SRC_MAC, MacAddress(2), SRC_IP,
                                      IPv4Address("10.1.0.9"), inner,
                                      vni=7, src_port=50000)
    strip_underlay_transport(wrapped)
    assert wrapped.layers == inner.layers
    assert wrapped.five_tuple() is ft
    assert wrapped.wire_length == inner.wire_length
    with pytest.raises(PacketError):
        strip_underlay_transport(_inner())


def test_tcp_for_memoizes_its_flow():
    ft = FiveTuple(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                   6, 1000, 80)
    pkt = Packet.tcp_for(ft, TcpFlags.of("syn"), b"q")
    assert pkt.five_tuple() is ft
    assert pkt == Packet.tcp(ft.src_ip, ft.dst_ip, 1000, 80,
                             TcpFlags.of("syn"), b"q")
    with pytest.raises(PacketError):
        Packet.tcp_for(FiveTuple(ft.src_ip, ft.dst_ip, 17, 1, 2))


@settings(max_examples=200, deadline=None)
@given(five_tuples, st.integers(0, (1 << 64) - 1))
def test_flow_hash_is_sha256_of_documented_blob(ft, seed):
    blob = (seed.to_bytes(8, "big") + ft.src_ip.to_bytes()
            + ft.dst_ip.to_bytes() + bytes([ft.proto])
            + ft.src_port.to_bytes(2, "big") + ft.dst_port.to_bytes(2, "big"))
    expected = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    assert ft.hash(seed) == expected


# -- per-peer hop template ----------------------------------------------------------------


def test_hop_encap_shares_outer_ethernet_per_peer():
    hops = HopEncap(SRC_IP, SRC_MAC)
    other = Location(IPv4Address("10.1.0.2"), MacAddress(0x43))
    a1 = hops.wrap(LOC, _tx_meta(), _inner())
    a2 = hops.wrap(LOC, _tx_meta(), _inner())
    b = hops.wrap(other, _tx_meta(), _inner())
    assert a1.layers[0] is a2.layers[0]
    assert b.layers[0] is not a1.layers[0]
    assert b.layers[0].dst == MacAddress(0x43)
    # A replaced Location for the same peer IP rebuilds the header.
    moved = Location(LOC.underlay_ip, MacAddress(0x99))
    assert hops.wrap(moved, _tx_meta(), _inner()).layers[0].dst == \
        MacAddress(0x99)
    assert a1 == build_nezha_hop(SRC_IP, SRC_MAC, LOC, _tx_meta(), _inner())


def test_receiver_never_aliases_sender_state():
    state = SessionState(first_direction=Direction.TX)
    meta = NezhaMeta(kind=KIND_TX, vnic_id=1, state=state)
    hop = build_nezha_hop(SRC_IP, SRC_MAC, LOC, meta, inner=_inner())
    back = unwrap_nezha_hop(hop)
    assert back.state == state and back.state is not state
    pre = PreActions()
    rx = NezhaMeta(kind=KIND_RX, vnic_id=1, pre_actions=pre)
    back = unwrap_nezha_hop(build_nezha_hop(SRC_IP, SRC_MAC, LOC, rx,
                                            inner=_inner()))
    assert back.pre_actions is not pre


# -- the crr_connection micro-bench ------------------------------------------------------


def test_crr_connection_bench_crosses_the_hop(monkeypatch):
    """Each benched op is one whole CRR connection whose six segments all
    ride the BE↔FE hop: SYN, request and FIN arrive at the FE and are
    relayed RX-ward; SYN-ACK, response and FIN-ACK leave the BE TX-ward."""
    from repro.bench.micro import _setup_crr_connection
    op, ops_per_call = _setup_crr_connection()
    assert ops_per_call == 1
    kinds = []
    real_wrap = HopEncap.wrap

    def counting_wrap(self, dst, meta, *args, **kwargs):
        kinds.append(meta.kind)
        return real_wrap(self, dst, meta, *args, **kwargs)

    monkeypatch.setattr(HopEncap, "wrap", counting_wrap)
    for _ in range(3):
        kinds.clear()
        conn = op()
        assert conn.completed_at is not None
        assert sorted(kinds) == sorted([KIND_RX] * 3 + [KIND_TX] * 3)
