"""The packet: a stack of decoded headers plus a payload.

Packets traverse the simulation as structured objects (no per-hop
serialization cost), but :meth:`Packet.encode` / :meth:`Packet.decode`
produce and parse real bytes, so the wire formats stay honest — the
property tests round-trip random packets through both.

Header stacking conventions (outer → inner):

* plain overlay transport: ``Eth / IPv4 / UDP(4789) / VXLAN / Eth / IPv4 / L4``
* Nezha BE↔FE hop:        ``Eth / IPv4 / UDP(4790) / NSH(ctx) / IPv4 / L4``

``meta`` is a free-form dict for simulation bookkeeping (timestamps, ids);
it never hits the wire.
"""

from __future__ import annotations

from copy import copy as _shallow_copy
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar, Union

from repro.errors import DecodeError, PacketError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.five_tuple import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.icmp import IcmpHeader
from repro.net.ipv4 import IPv4Header
from repro.net.nsh import NEXT_PROTO_ETHERNET, NEXT_PROTO_IPV4, NshHeader
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader
from repro.net.vxlan import VXLAN_PORT, VxlanHeader

NSH_PORT = 4790  # VXLAN-GPE port, next-protocol NSH

Header = Union[EthernetHeader, IPv4Header, TcpHeader, UdpHeader,
               IcmpHeader, VxlanHeader, NshHeader]
H = TypeVar("H")


class Packet:
    """An ordered header stack (outer first) and a payload.

    ``five_tuple()``, ``wire_length``, and :meth:`encode` are memoized:
    all three walk the layer stack, and the data path consults the first
    two several times per hop while the codec path re-serializes
    identical headers otherwise. The memos are invalidated by
    :meth:`encap`/:meth:`decap`/:meth:`decap_until`; code that mutates
    header fields in place (the NAT rewrites) must call
    :meth:`invalidate_flow_cache` afterwards (see DESIGN.md §3).
    """

    __slots__ = ("layers", "payload", "meta", "_ft", "_wire", "_enc")

    def __init__(self, layers: List[Header], payload: bytes = b"",
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if not layers:
            raise PacketError("a packet needs at least one header")
        self.layers: List[Header] = list(layers)
        self.payload = payload
        self.meta: Dict[str, Any] = meta if meta is not None else {}
        self._ft: Optional[FiveTuple] = None
        self._wire: Optional[int] = None
        self._enc: Optional[bytes] = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def tcp(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
            src_port: int, dst_port: int, flags: TcpFlags = None,
            payload: bytes = b"", seq: int = 0, ack_num: int = 0) -> "Packet":
        """A bare IPv4/TCP packet (no Ethernet), as a VM's vNIC emits it."""
        total = IPv4Header.wire_length + TcpHeader.wire_length + len(payload)
        ip = IPv4Header(src_ip, dst_ip, PROTO_TCP, total_length=total)
        tcp = TcpHeader(src_port, dst_port, seq=seq, ack_num=ack_num, flags=flags)
        return cls([ip, tcp], payload)

    @classmethod
    def tcp_for(cls, flow: FiveTuple, flags: TcpFlags = None,
                payload: bytes = b"") -> "Packet":
        """A bare IPv4/TCP segment of ``flow``. Its header fields are
        taken from ``flow``, so ``flow`` is its flow key by construction
        and is memoized as such: every segment of a connection then
        shares one key object and its memoized hashes."""
        if flow.proto != PROTO_TCP:
            raise PacketError(f"not a TCP flow: {flow!r}")
        pkt = cls.tcp(flow.src_ip, flow.dst_ip, flow.src_port,
                      flow.dst_port, flags, payload)
        pkt._ft = flow
        return pkt

    @classmethod
    def udp(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
            src_port: int, dst_port: int, payload: bytes = b"") -> "Packet":
        total = IPv4Header.wire_length + UdpHeader.wire_length + len(payload)
        ip = IPv4Header(src_ip, dst_ip, PROTO_UDP, total_length=total)
        udp = UdpHeader(src_port, dst_port, UdpHeader.wire_length + len(payload))
        return cls([ip, udp], payload)

    @classmethod
    def icmp_echo(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
                  identifier: int = 0, sequence: int = 0,
                  reply: bool = False) -> "Packet":
        from repro.net.icmp import ECHO_REPLY, ECHO_REQUEST
        total = IPv4Header.wire_length + IcmpHeader.wire_length
        ip = IPv4Header(src_ip, dst_ip, PROTO_ICMP, total_length=total)
        icmp = IcmpHeader(ECHO_REPLY if reply else ECHO_REQUEST, 0,
                          identifier, sequence)
        return cls([ip, icmp], b"")

    # -- header access --------------------------------------------------------

    def find(self, header_type: Type[H], nth: int = 0) -> Optional[H]:
        """The ``nth`` header of the given type, outermost first."""
        seen = 0
        for layer in self.layers:
            if isinstance(layer, header_type):
                if seen == nth:
                    return layer
                seen += 1
        return None

    def expect(self, header_type: Type[H], nth: int = 0) -> H:
        header = self.find(header_type, nth)
        if header is None:
            raise PacketError(f"packet lacks {header_type.__name__}[{nth}]")
        return header

    @property
    def outer(self) -> Header:
        return self.layers[0]

    def inner_ipv4(self) -> IPv4Header:
        """The innermost IPv4 header (the tenant packet's)."""
        for layer in reversed(self.layers):
            if isinstance(layer, IPv4Header):
                return layer
        raise PacketError("packet has no IPv4 header")

    def inner_l4(self) -> Union[TcpHeader, UdpHeader, IcmpHeader]:
        for layer in reversed(self.layers):
            if isinstance(layer, (TcpHeader, UdpHeader, IcmpHeader)):
                return layer
        raise PacketError("packet has no L4 header")

    def five_tuple(self) -> FiveTuple:
        """The innermost flow key (the tenant's 5-tuple); memoized."""
        ft = self._ft
        if ft is not None:
            return ft
        ip = self.inner_ipv4()
        l4 = self.inner_l4()
        if isinstance(l4, (TcpHeader, UdpHeader)):
            ft = FiveTuple(ip.src, ip.dst, ip.proto,
                           l4.src_port, l4.dst_port)
        else:
            ft = FiveTuple(ip.src, ip.dst, ip.proto,
                           l4.identifier, l4.identifier)
        self._ft = ft
        return ft

    def invalidate_flow_cache(self) -> None:
        """Drop the memoized flow key / wire length / encoded bytes after
        an in-place header mutation (NAT rewrites, layer surgery)."""
        self._ft = None
        self._wire = None
        self._enc = None

    def vni(self) -> Optional[int]:
        vxlan = self.find(VxlanHeader)
        return vxlan.vni if vxlan else None

    def nsh(self) -> Optional[NshHeader]:
        return self.find(NshHeader)

    # -- encap / decap ---------------------------------------------------------

    def encap(self, *outer_layers: Header) -> "Packet":
        """Push extra outer headers (given outer-first); returns self."""
        self.layers[:0] = list(outer_layers)
        self._ft = None
        self._wire = None
        self._enc = None
        return self

    def decap(self, count: int = 1) -> List[Header]:
        """Pop ``count`` outermost headers; returns them."""
        if count >= len(self.layers):
            raise PacketError("decap would remove every header")
        removed, self.layers = self.layers[:count], self.layers[count:]
        self._ft = None
        self._wire = None
        self._enc = None
        return removed

    def decap_until(self, header_type: Type[Header]) -> List[Header]:
        """Pop outer headers until the outermost is ``header_type``."""
        removed: List[Header] = []
        while self.layers and not isinstance(self.layers[0], header_type):
            if len(self.layers) == 1:
                raise PacketError(f"no {header_type.__name__} layer to decap to")
            removed.append(self.layers.pop(0))
        if removed:
            self._ft = None
            self._wire = None
            self._enc = None
        return removed

    @classmethod
    def wrap(cls, outer_layers: List[Header], inner: "Packet",
             wire_length: int) -> "Packet":
        """A new packet: ``outer_layers`` around ``inner``'s headers and
        payload, with ``wire_length`` its closed-form total size.

        Tunnel wraps add only outer headers, so the innermost 5-tuple is
        ``inner``'s: the new packet inherits its memoized flow key (and
        with it the memoized hashes) instead of rebuilding it. The header
        objects of ``inner`` are shared, not copied."""
        new = cls.__new__(cls)
        new.layers = outer_layers + inner.layers
        new.payload = inner.payload
        new.meta = dict(inner.meta)
        new._enc = None
        new._ft = inner._ft
        new._wire = wire_length
        return new

    def strip_tunnel(self, count: int) -> None:
        """Pop the ``count`` outer headers of a tunnel around a whole inner
        packet (the BE↔FE hop, the VXLAN transport).

        Unlike :meth:`decap`, which may strip any layers and so drops
        every memo, the flow key survives: the innermost 5-tuple is the
        inner packet's before and after."""
        if count >= len(self.layers):
            raise PacketError("strip would remove every header")
        del self.layers[:count]
        self._wire = None
        self._enc = None

    def copy(self) -> "Packet":
        """A shallow-header copy (headers re-decoded from bytes would be
        equal); meta is copied so per-hop annotations do not alias.

        The copy is built through ``__new__`` and inherits the memoized
        ``five_tuple``/``wire_length``/encoded bytes: a FiveTuple is
        immutable and the copy's field values are identical by
        construction, so there is nothing to re-validate. A caller that
        mutates the copy's headers owes the same
        :meth:`invalidate_flow_cache` the original would."""
        new = Packet.__new__(Packet)
        new.layers = [_shallow_copy(layer) for layer in self.layers]
        new.payload = self.payload
        new.meta = dict(self.meta)
        new._ft = self._ft
        new._wire = self._wire
        new._enc = self._enc
        return new

    # -- wire form --------------------------------------------------------------

    @property
    def wire_length(self) -> int:
        wire = self._wire
        if wire is not None:
            return wire
        wire = sum(layer.wire_length
                   for layer in self.layers) + len(self.payload)
        self._wire = wire
        return wire

    def encode(self) -> bytes:
        enc = self._enc
        if enc is not None:
            return enc
        enc = b"".join(layer.encode() for layer in self.layers) + self.payload
        self._enc = enc
        return enc

    @classmethod
    def decode(cls, data: bytes, first_layer: str = "ipv4") -> "Packet":
        """Parse bytes using the stacking conventions above.

        ``first_layer`` is ``"ethernet"`` or ``"ipv4"`` depending on where
        the bytes were captured.
        """
        layers: List[Header] = []
        rest = data
        expected: Optional[str] = first_layer
        while expected is not None:
            if expected == "ethernet":
                eth, rest = EthernetHeader.decode(rest)
                layers.append(eth)
                if eth.ethertype == ETHERTYPE_IPV4:
                    expected = "ipv4"
                else:
                    raise DecodeError(f"unhandled ethertype {eth.ethertype:#06x}")
            elif expected == "ipv4":
                ip, rest = IPv4Header.decode(rest)
                layers.append(ip)
                if ip.proto == PROTO_TCP:
                    expected = "tcp"
                elif ip.proto == PROTO_UDP:
                    expected = "udp"
                elif ip.proto == PROTO_ICMP:
                    expected = "icmp"
                else:
                    raise DecodeError(f"unhandled IP proto {ip.proto}")
            elif expected == "tcp":
                tcp, rest = TcpHeader.decode(rest)
                layers.append(tcp)
                expected = None
            elif expected == "icmp":
                icmp, rest = IcmpHeader.decode(rest)
                layers.append(icmp)
                expected = None
            elif expected == "udp":
                udp, rest = UdpHeader.decode(rest)
                layers.append(udp)
                if udp.dst_port == VXLAN_PORT:
                    expected = "vxlan"
                elif udp.dst_port == NSH_PORT:
                    expected = "nsh"
                else:
                    expected = None
            elif expected == "vxlan":
                vxlan, rest = VxlanHeader.decode(rest)
                layers.append(vxlan)
                expected = "ethernet"
            elif expected == "nsh":
                nsh, rest = NshHeader.decode(rest)
                layers.append(nsh)
                if not rest:
                    expected = None  # a notify hop: metadata, no inner packet
                elif nsh.next_proto == NEXT_PROTO_IPV4:
                    expected = "ipv4"
                elif nsh.next_proto == NEXT_PROTO_ETHERNET:
                    expected = "ethernet"
                else:
                    raise DecodeError(f"unhandled NSH next proto {nsh.next_proto}")
            else:  # pragma: no cover - defensive
                raise DecodeError(f"unknown layer kind {expected!r}")
        pkt = cls(layers, rest)
        # The parse consumed every byte of ``data``, and header encodings
        # are canonical, so the input *is* the packet's wire form: a
        # decode→encode round trip returns it without re-serializing.
        pkt._enc = data
        return pkt

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Packet)
                and self.layers == other.layers
                and self.payload == other.payload)

    def __repr__(self) -> str:
        names = "/".join(type(layer).__name__.replace("Header", "")
                         for layer in self.layers)
        return f"Packet({names}, {self.wire_length}B)"


def make_underlay_transport(
    src_mac: MacAddress, dst_mac: MacAddress,
    src_ip: IPv4Address, dst_ip: IPv4Address,
    inner: Packet, vni: int, src_port: int = 49152,
) -> Packet:
    """Wrap a tenant packet in the standard VXLAN overlay transport."""
    return EncapTemplate(src_mac, dst_mac, src_ip, dst_ip,
                         vni).wrap(inner, src_port)


def strip_underlay_transport(packet: Packet) -> None:
    """Undo the VXLAN overlay transport in place: pop every header down to
    the tenant IPv4 header that follows the VXLAN header.

    Only tunnel layers go, so the packet keeps its memoized flow key
    (:meth:`Packet.strip_tunnel`) — the key the sender's wrap carried."""
    layers = packet.layers
    vxlan_seen = False
    for index, layer in enumerate(layers):
        if vxlan_seen and isinstance(layer, IPv4Header):
            packet.strip_tunnel(index)
            return
        if isinstance(layer, VxlanHeader):
            vxlan_seen = True
    raise PacketError("no tenant IPv4 header under a VXLAN header")


#: The synthetic inner Ethernet header of every VXLAN wrap. Like the
#: other shared transport headers it is never mutated in flight.
_INNER_ETH = EthernetHeader(MacAddress(0x02_00_00_00_00_02),
                            MacAddress(0x02_00_00_00_00_01))


class EncapTemplate:
    """The constant VXLAN transport headers of one overlay route.

    A VXLAN wrap needs five header objects per forwarded packet, but for
    one route — source, next hop and VNI — three of them are identical
    across every packet of every flow: the outer Ethernet, the VXLAN
    header and the synthetic inner Ethernet. Nothing downstream mutates
    them in place (the underlay only decrements the outer IPv4 TTL, and
    :meth:`Packet.copy` shallow-copies layers before any NAT surgery), so
    they are built once here and shared across wraps. The outer IPv4 and
    UDP headers carry per-packet lengths, the flow's source-port entropy
    and a TTL mutated in flight, so they stay per-wrap.

    A vSwitch keeps one template per route it forwards on
    (:meth:`VSwitch.encap_template`); the template is a pure function of
    its key, so it never needs invalidating.
    :func:`make_underlay_transport` is a one-off template.
    """

    __slots__ = ("src_ip", "dst_ip", "eth", "vxlan")

    #: UDP-length overhead above the inner packet: UDP + VXLAN + inner Eth.
    OVERHEAD = (UdpHeader.wire_length + VxlanHeader.wire_length
                + EthernetHeader.wire_length)

    def __init__(self, src_mac: MacAddress, dst_mac: MacAddress,
                 src_ip: IPv4Address, dst_ip: IPv4Address,
                 vni: int) -> None:
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.eth = EthernetHeader(dst_mac, src_mac)
        self.vxlan = VxlanHeader(vni)

    def wrap(self, inner: Packet, src_port: int) -> Packet:
        """Encapsulate ``inner`` (``Eth / IPv4 / UDP / VXLAN / Eth``)."""
        udp_len = self.OVERHEAD + inner.wire_length
        total = IPv4Header.wire_length + udp_len
        outer = [
            self.eth,
            IPv4Header(self.src_ip, self.dst_ip, PROTO_UDP,
                       total_length=total),
            UdpHeader(src_port, VXLAN_PORT, udp_len),
            self.vxlan,
            _INNER_ETH,
        ]
        return Packet.wrap(outer, inner, EthernetHeader.wire_length + total)
