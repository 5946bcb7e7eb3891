"""Minimal guest TCP endpoints for request/response workloads.

Implements exactly the exchange netperf TCP_CRR performs per transaction
(§6.2.1): SYN → SYN/ACK → request → response → FIN → FIN/ACK. Enough to
exercise the vSwitch slow path twice per connection (one first packet per
direction), drive the session FSM to ESTABLISHED and teardown, and measure
connections-per-second end to end.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.net.addr import IPv4Address
from repro.net.five_tuple import FiveTuple
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags, TcpHeader
from repro.host.vm import Vm
from repro.vswitch.vnic import Vnic


class ConnState(enum.Enum):
    CONNECTING = "connecting"
    REQUEST_SENT = "request_sent"
    CLOSING = "closing"
    DONE = "done"
    FAILED = "failed"


class GuestConnection:
    """Client-side transaction state for one TCP_CRR exchange."""

    __slots__ = ("five_tuple", "state", "opened_at", "completed_at",
                 "on_done", "on_fail")

    def __init__(self, five_tuple: FiveTuple, opened_at: float) -> None:
        self.five_tuple = five_tuple
        self.state = ConnState.CONNECTING
        self.opened_at = opened_at
        self.completed_at: Optional[float] = None
        self.on_done: Optional[Callable[["GuestConnection"], None]] = None
        self.on_fail: Optional[Callable[["GuestConnection"], None]] = None

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ConfigError("transaction not complete")
        return self.completed_at - self.opened_at


class GuestTcp:
    """A VM-resident TCP endpoint bound to one vNIC."""

    def __init__(self, vm: Vm, vnic: Vnic, request_bytes: int = 64,
                 response_bytes: int = 256, timeout: float = 1.0) -> None:
        self.vm = vm
        self.vnic = vnic
        self.engine = vm.engine
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.timeout = timeout
        self._conns: Dict[FiveTuple, GuestConnection] = {}
        self._next_port = 20000
        self.completed = 0
        self.failed = 0
        self.server_accepts = 0

    # -- server side -------------------------------------------------------------

    def serve(self, port: int) -> None:
        """Accept connections on ``port``, answering the CRR exchange."""
        self.vm.listen(self.vnic, port, self._server_rx)

    def _server_rx(self, packet: Packet) -> None:
        tcp = packet.find(TcpHeader)
        if tcp is None:
            return
        if tcp.flags.syn and not tcp.flags.ack:
            self.server_accepts += 1
            self._reply(packet, TcpFlags.of("syn", "ack"),
                        new_connection=True)
        elif tcp.flags.psh:
            self._reply(packet, TcpFlags.of("psh", "ack"),
                        payload=b"r" * self.response_bytes)
        elif tcp.flags.fin:
            self._reply(packet, TcpFlags.of("fin", "ack"))

    def _reply(self, request: Packet, flags: TcpFlags, payload: bytes = b"",
               new_connection: bool = False) -> None:
        """Answer ``request`` from this vNIC's address. The reply flow is
        the request's reversed: every segment of a connection carries the
        same request key, so all replies share one key object."""
        flow = request.five_tuple().reversed()
        if flow.src_ip != self.vnic.tenant_ip:
            flow = FiveTuple(self.vnic.tenant_ip, flow.dst_ip, flow.proto,
                             flow.src_port, flow.dst_port)
        self.vm.send(self.vnic, Packet.tcp_for(flow, flags, payload),
                     new_connection=new_connection)

    # -- client side ----------------------------------------------------------------

    def open(self, dst_ip: IPv4Address, dst_port: int,
             on_done: Optional[Callable[[GuestConnection], None]] = None,
             on_fail: Optional[Callable[[GuestConnection], None]] = None
             ) -> GuestConnection:
        """Start one CRR transaction; completion is reported via callbacks."""
        src_port = self._alloc_port()
        ft = FiveTuple(self.vnic.tenant_ip, dst_ip, 6, src_port, dst_port)
        conn = GuestConnection(ft, self.engine.now)
        conn.on_done = on_done
        conn.on_fail = on_fail
        self._conns[ft] = conn
        self.vm.listen(self.vnic, src_port,
                       lambda pkt, c=conn: self._client_rx(c, pkt))
        syn = Packet.tcp_for(ft, TcpFlags.of("syn"))
        self.vm.send(self.vnic, syn, new_connection=True)
        self.engine.call_after(self.timeout, self._check_timeout, conn)
        return conn

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port > 64000:
            self._next_port = 20000
        return port

    def _client_rx(self, conn: GuestConnection, packet: Packet) -> None:
        tcp = packet.find(TcpHeader)
        if tcp is None or conn.state in (ConnState.DONE, ConnState.FAILED):
            return
        ft = conn.five_tuple
        if tcp.flags.syn and tcp.flags.ack and conn.state is ConnState.CONNECTING:
            request = Packet.tcp_for(ft, TcpFlags.of("psh", "ack"),
                                     b"q" * self.request_bytes)
            conn.state = ConnState.REQUEST_SENT
            self.vm.send(self.vnic, request)
        elif tcp.flags.psh and conn.state is ConnState.REQUEST_SENT:
            fin = Packet.tcp_for(ft, TcpFlags.of("fin", "ack"))
            conn.state = ConnState.CLOSING
            self.vm.send(self.vnic, fin)
        elif tcp.flags.fin and conn.state is ConnState.CLOSING:
            conn.state = ConnState.DONE
            conn.completed_at = self.engine.now
            self.completed += 1
            self._finish(conn)
            if conn.on_done is not None:
                conn.on_done(conn)

    def _check_timeout(self, conn: GuestConnection) -> None:
        if conn.state in (ConnState.DONE, ConnState.FAILED):
            return
        conn.state = ConnState.FAILED
        self.failed += 1
        self._finish(conn)
        if conn.on_fail is not None:
            conn.on_fail(conn)

    def _finish(self, conn: GuestConnection) -> None:
        self._conns.pop(conn.five_tuple, None)
        self.vm.unlisten(self.vnic, conn.five_tuple.src_port)

    @property
    def in_flight(self) -> int:
        return len(self._conns)
