"""UDP: connectionless datagram sockets.

Used by Mobile IP signalling (registration requests/replies), DNS and a
few application protocols.  Port demultiplexing is per node.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..sim import Event, Store
from .addressing import IPAddress
from .node import Node
from .packet import PROTO_UDP, Packet

__all__ = ["UDPSegment", "UDPSocket", "UDPStack", "udp_stack"]

UDP_HEADER_BYTES = 8


class UDPSegment:
    def __init__(self, src_port: int, dst_port: int, data: Any,
                 data_size: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.data = data
        self.data_size = data_size


class UDPSocket:
    """A bound UDP endpoint."""

    def __init__(self, stack: "UDPStack", port: int):
        self.stack = stack
        self.port = port
        self.inbox: Store = Store(stack.node.sim)
        self.closed = False

    def sendto(self, data: Any, dst: IPAddress, dst_port: int,
               data_size: int = 0) -> bool:
        """Send one datagram; returns False if the first hop dropped it."""
        if self.closed:
            raise RuntimeError("sendto() on a closed socket")
        segment = UDPSegment(self.port, dst_port, data, data_size)
        packet = Packet(
            src=self.stack.node.primary_address,
            dst=dst,
            proto=PROTO_UDP,
            payload=segment,
            payload_size=data_size + UDP_HEADER_BYTES,
        )
        return self.stack.node.send_ip(packet)

    def recv(self) -> Event:
        """Event yielding (data, src_address, src_port)."""
        if self.closed:
            raise RuntimeError("recv() on a closed socket")
        return self.inbox.get()

    def recv_with_timeout(self, timeout: float) -> Event:
        """Event yielding (data, src, port) or None on timeout."""
        sim = self.stack.node.sim
        result = sim.event()

        def waiter(env):
            got = self.inbox.get()
            expiry = env.timeout(timeout)
            fired = yield env.any_of([got, expiry])
            expiry.cancel()  # a no-op once it has fired
            if got in fired:
                result.succeed(fired[got])
            else:
                # Withdraw the getter, as Request.cancel withdraws a
                # Resource waiter: the next datagram is the next recv's.
                self.inbox.cancel(got)
                result.succeed(None)

        sim.spawn(waiter(sim), name="udp-recv-timeout")
        return result

    def close(self) -> None:
        self.closed = True
        self.stack._unbind(self.port)


class UDPStack:
    """Per-node UDP port table."""

    def __init__(self, node: Node):
        if getattr(node, "_udp_stack", None) is not None:
            raise RuntimeError(
                f"node {node.name} already has a UDP stack; share it instead"
            )
        node._udp_stack = self
        self.node = node
        self._sockets: dict[int, UDPSocket] = {}
        self._ephemeral = itertools.count(49152)
        node.register_protocol(PROTO_UDP, self._on_packet)

    def bind(self, port: Optional[int] = None) -> UDPSocket:
        if port is None:
            port = next(self._ephemeral)
        if port in self._sockets:
            raise RuntimeError(f"port {port} already bound on {self.node.name}")
        sock = UDPSocket(self, port)
        self._sockets[port] = sock
        return sock

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def _on_packet(self, node: Node, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, UDPSegment):
            node.stats.incr("udp_malformed")
            return
        sock = self._sockets.get(segment.dst_port)
        if sock is None:
            node.stats.incr("udp_port_unreachable")
            return
        sock.inbox.try_put((segment.data, packet.src, segment.src_port))


def udp_stack(node: Node) -> UDPStack:
    """The node's UDP stack, creating one on first use."""
    existing = getattr(node, "_udp_stack", None)
    if existing is not None:
        return existing
    return UDPStack(node)
