"""Nezha metadata carried in NSH context TLVs (§3.2.1).

Three packet kinds cross the BE↔FE hop, distinguished by the DIRECTION TLV:

* ``T`` — a TX data packet, BE→FE, carrying the session STATE;
* ``R`` — an RX data packet, FE→BE, carrying PRE_ACTIONS and, when the NF
  needs it, STATE_INIT info (e.g. the overlay source for stateful decap);
* ``N`` — a designated notify packet, FE→BE, updating rule-table-involved
  state (§3.2.2).

:func:`build_nezha_hop` (or a sender's reusable :class:`HopEncap`) wraps
an inner tenant packet in ``Eth / IPv4 / UDP(4790) / NSH(meta)``
addressed to the peer's underlay.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import DecodeError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import EthernetHeader
from repro.net.five_tuple import PROTO_UDP, FiveTuple
from repro.net.ipv4 import IPv4Header
from repro.net.nsh import NshContext, NshHeader
from repro.net.packet import NSH_PORT, Packet
from repro.net.udp import UdpHeader
from repro.vswitch.actions import PreAction, PreActions, Verdict
from repro.vswitch.rule_tables import Location
from repro.vswitch.state import SessionState, StatsPolicy

KIND_TX = b"T"
KIND_RX = b"R"
KIND_NOTIFY = b"N"


def encode_pre_actions(pre: PreActions) -> bytes:
    """Pack the fields the BE needs to finish RX processing (8 bytes)."""
    return (pre.tx.verdict.to_wire() + pre.rx.verdict.to_wire()
            + (b"\x01" if pre.tx.stateful_acl else b"\x00")
            + (b"\x01" if pre.rx.stateful_acl else b"\x00")
            + pre.rx.stats_policy.to_wire()
            + bytes([pre.rx.qos_class & 0xFF])
            + b"\x00\x00")


def decode_pre_actions(data: bytes) -> PreActions:
    if len(data) < 8:
        raise DecodeError(f"pre-actions blob needs 8B, got {len(data)}")
    policy = StatsPolicy.from_wire(data[4:5])
    tx = PreAction(verdict=Verdict.from_wire(data[0:1]),
                   stateful_acl=bool(data[2]), stats_policy=policy)
    rx = PreAction(verdict=Verdict.from_wire(data[1:2]),
                   stateful_acl=bool(data[3]), stats_policy=policy,
                   qos_class=data[5])
    return PreActions(tx, rx)


def encode_five_tuple(ft: FiveTuple) -> bytes:
    return (ft.src_ip.to_bytes() + ft.dst_ip.to_bytes() + bytes([ft.proto])
            + struct.pack("!HH", ft.src_port, ft.dst_port))


def decode_five_tuple(data: bytes) -> FiveTuple:
    if len(data) < 13:
        raise DecodeError(f"five-tuple blob needs 13B, got {len(data)}")
    src = IPv4Address.from_bytes(data[0:4])
    dst = IPv4Address.from_bytes(data[4:8])
    proto = data[8]
    sport, dport = struct.unpack("!HH", data[9:13])
    return FiveTuple(src, dst, proto, sport, dport)


@dataclass
class NezhaMeta:
    """Decoded Nezha TLV bundle."""

    kind: bytes                     # KIND_TX / KIND_RX / KIND_NOTIFY
    vnic_id: int
    state: Optional[SessionState] = None        # TX-ward
    pre_actions: Optional[PreActions] = None    # RX-ward
    overlay_src: Optional[IPv4Address] = None   # STATE_INIT for decap (§5.2)
    notify_five_tuple: Optional[FiveTuple] = None
    notify_policy: Optional[StatsPolicy] = None

    def to_context(self) -> NshContext:
        # Every Nezha TLV has a fixed size far inside the TLV and header
        # limits, so the context adopts them without per-TLV checks.
        entries = {NshContext.DIRECTION: self.kind,
                   NshContext.VNIC: struct.pack("!I", self.vnic_id)}
        if self.state is not None:
            entries[NshContext.STATE] = self.state.to_wire()
        if self.pre_actions is not None:
            entries[NshContext.PRE_ACTIONS] = encode_pre_actions(
                self.pre_actions)
        if self.overlay_src is not None:
            entries[NshContext.STATE_INIT] = self.overlay_src.to_bytes()
        if self.notify_five_tuple is not None:
            entries[NshContext.NOTIFY] = (
                encode_five_tuple(self.notify_five_tuple)
                + (self.notify_policy or StatsPolicy.NONE).to_wire())
        return NshContext.prevalidated(entries)

    @classmethod
    def from_context(cls, ctx: NshContext) -> "NezhaMeta":
        """Decode a context. Every object it returns is freshly built, so
        the receiver never aliases the sender's state or pre-actions."""
        entries = ctx.entries
        try:
            (vnic_id,) = struct.unpack("!I", entries[NshContext.VNIC])
            meta = cls(kind=entries[NshContext.DIRECTION], vnic_id=vnic_id)
        except KeyError as missing:
            raise DecodeError(f"TLV {missing.args[0]:#x} absent") from None
        blob = entries.get(NshContext.STATE)
        if blob is not None:
            meta.state = SessionState.from_wire(blob)
        blob = entries.get(NshContext.PRE_ACTIONS)
        if blob is not None:
            meta.pre_actions = decode_pre_actions(blob)
        blob = entries.get(NshContext.STATE_INIT)
        if blob is not None:
            meta.overlay_src = IPv4Address.from_bytes(blob)
        blob = entries.get(NshContext.NOTIFY)
        if blob is not None:
            meta.notify_five_tuple = decode_five_tuple(blob[:13])
            meta.notify_policy = StatsPolicy.from_wire(blob[13:14])
        return meta


class HopEncap:
    """One sender's BE↔FE hop encapsulation.

    The outer Ethernet header depends only on the peer, so it is built
    once per peer and shared by every hop to it — nothing in flight
    mutates it (the underlay only decrements the outer IPv4 TTL). The
    outer IPv4 and UDP headers carry per-packet lengths, ports and TTL,
    and the NSH header per-packet metadata, so those are built per hop.
    """

    __slots__ = ("src_ip", "src_mac", "_peers")

    def __init__(self, src_ip: IPv4Address, src_mac: MacAddress) -> None:
        self.src_ip = src_ip
        self.src_mac = src_mac
        # peer underlay IP value -> (peer Location, outer Ethernet header)
        self._peers: Dict[int, Tuple[Location, EthernetHeader]] = {}

    def _eth_to(self, dst: Location) -> EthernetHeader:
        key = dst.underlay_ip.value
        cached = self._peers.get(key)
        if cached is None or cached[0] is not dst:
            cached = self._peers[key] = (
                dst, EthernetHeader(dst.underlay_mac, self.src_mac))
        return cached[1]

    def wrap(self, dst: Location, meta: NezhaMeta,
             inner: Optional[Packet] = None, entropy: int = 0) -> Packet:
        """Wrap ``inner`` (or nothing, for a notify) for the hop to
        ``dst``: ``Eth / IPv4 / UDP(4790) / NSH(meta)``."""
        nsh = NshHeader(spi=meta.vnic_id & 0xFFFFFF, si=255,
                        context=meta.to_context())
        inner_len = inner.wire_length if inner is not None else 0
        udp_len = UdpHeader.wire_length + nsh.wire_length + inner_len
        total = IPv4Header.wire_length + udp_len
        outer = [
            self._eth_to(dst),
            IPv4Header(self.src_ip, dst.underlay_ip, PROTO_UDP,
                       total_length=total),
            UdpHeader(49152 + (entropy & 0x3FFF), NSH_PORT, udp_len),
            nsh,
        ]
        if inner is None:
            return Packet(outer)
        return Packet.wrap(outer, inner, EthernetHeader.wire_length + total)


def build_nezha_hop(src_ip: IPv4Address, src_mac: MacAddress,
                    dst: Location, meta: NezhaMeta,
                    inner: Optional[Packet] = None,
                    entropy: int = 0) -> Packet:
    """Wrap ``inner`` (or nothing, for a notify) for the BE↔FE hop."""
    return HopEncap(src_ip, src_mac).wrap(dst, meta, inner, entropy)


def unwrap_nezha_hop(packet: Packet) -> NezhaMeta:
    """Strip the hop encapsulation in place; returns the decoded metadata.

    After this call the packet holds only the inner tenant layers, and
    keeps its memoized flow key (for a notify, a placeholder NSH layer
    remains — notify packets carry no tenant payload and are consumed by
    the BE).
    """
    layers = packet.layers
    for index, nsh in enumerate(layers):
        if isinstance(nsh, NshHeader):
            break
    else:
        raise DecodeError("not a Nezha hop packet (no NSH layer)")
    meta = NezhaMeta.from_context(nsh.context)
    if index + 1 < len(layers):
        packet.strip_tunnel(index + 1)
    else:
        del layers[:index]  # keep the NSH layer as placeholder
        packet.invalidate_flow_cache()  # the 5-tuple was the outer one
    return meta
