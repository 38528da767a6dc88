"""Packet model shared by every layer of the stack.

A :class:`Packet` is an IP-like datagram: source/destination addresses,
a protocol tag, a payload (any Python object — usually a TCP/UDP
segment), a size in bytes and a TTL.  Tunnelling (used by
Mobile IP) wraps a whole packet as the payload of an outer packet.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from .addressing import IPAddress

__all__ = ["Packet", "PROTO_TCP", "PROTO_UDP", "PROTO_IPIP", "PROTO_ICMP"]

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
PROTO_IPIP = "ipip"  # IP-in-IP tunnel (Mobile IP)
PROTO_ICMP = "icmp"

_packet_ids = itertools.count(1)

IP_HEADER_BYTES = 20


class Packet:
    """An IP datagram.

    ``size`` is the on-the-wire size in bytes including headers; when
    not given it is computed as payload_size + 20 bytes of IP header.

    Slotted: packets are allocated per hop on every layer of the stack,
    and dropping the instance ``__dict__`` is free wall-clock.
    """

    __slots__ = ("src", "dst", "proto", "payload", "payload_size", "size",
                 "ttl", "packet_id", "hops", "created_at", "trace")

    def __init__(self, src: IPAddress, dst: IPAddress, proto: str,
                 payload: Any = None, payload_size: int = 0, size: int = 0,
                 ttl: int = 64, packet_id: int | None = None,
                 hops: list[str] | None = None, created_at: float = 0.0,
                 trace: Any = None):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        self.payload_size = payload_size
        self.size = size
        self.ttl = ttl
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        # Bookkeeping for traces and for Mobile IP decapsulation checks.
        self.hops = [] if hops is None else hops
        self.created_at = created_at
        # Observability: the TraceContext of the connection that emitted
        # the packet (None while tracing is off).  Purely observational:
        # copy() and encapsulate() preserve it, nothing else reads it.
        self.trace = trace
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size}")
        if size == 0:
            self.size = payload_size + IP_HEADER_BYTES
        if ttl <= 0:
            raise ValueError(f"packet born dead: ttl={ttl}")

    def encapsulate(self, outer_src: IPAddress, outer_dst: IPAddress) -> "Packet":
        """Wrap this packet in an IP-in-IP tunnel packet."""
        return Packet(
            src=outer_src,
            dst=outer_dst,
            proto=PROTO_IPIP,
            payload=self,
            payload_size=self.size,
            ttl=64,
            created_at=self.created_at,
            trace=self.trace,
        )

    def decapsulate(self) -> "Packet":
        """Unwrap a tunnel packet; returns the inner datagram."""
        if self.proto != PROTO_IPIP or not isinstance(self.payload, Packet):
            raise ValueError("decapsulate() on a non-tunnel packet")
        return self.payload

    def copy(self) -> "Packet":
        """A fresh packet with identical headers/payload but a new id."""
        return Packet(self.src, self.dst, self.proto, self.payload,
                      self.payload_size, self.size, self.ttl,
                      hops=list(self.hops), created_at=self.created_at,
                      trace=self.trace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.proto} {self.size}B ttl={self.ttl}>"
        )
