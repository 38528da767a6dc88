"""Packet model shared by every layer of the stack.

A :class:`Packet` is an IP-like datagram: source/destination addresses,
a protocol tag, a payload (any Python object — usually a TCP/UDP
segment dataclass), a size in bytes and a TTL.  Tunnelling (used by
Mobile IP) wraps a whole packet as the payload of an outer packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .addressing import IPAddress

__all__ = ["Packet", "PROTO_TCP", "PROTO_UDP", "PROTO_IPIP", "PROTO_ICMP"]

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
PROTO_IPIP = "ipip"  # IP-in-IP tunnel (Mobile IP)
PROTO_ICMP = "icmp"

_packet_ids = itertools.count(1)

IP_HEADER_BYTES = 20


@dataclass(slots=True)
class Packet:
    """An IP datagram.

    ``size`` is the on-the-wire size in bytes including headers; when
    not given it is computed as payload_size + 20 bytes of IP header.

    Slotted: packets are allocated per hop on every layer of the stack,
    and dropping the instance ``__dict__`` is free wall-clock.
    """

    src: IPAddress
    dst: IPAddress
    proto: str
    payload: Any = None
    payload_size: int = 0
    size: int = 0
    ttl: int = 64
    packet_id: int = field(default_factory=_packet_ids.__next__)
    # Bookkeeping for traces and for Mobile IP decapsulation checks.
    hops: list[str] = field(default_factory=list)
    created_at: float = 0.0
    # Observability: the TraceContext of the connection that emitted the
    # packet (None while tracing is off).  Purely observational — copy()
    # and encapsulate() preserve it, nothing else reads it.
    trace: Any = None

    def __post_init__(self):
        if self.payload_size < 0:
            raise ValueError(f"negative payload size: {self.payload_size}")
        if self.size == 0:
            self.size = self.payload_size + IP_HEADER_BYTES
        if self.ttl <= 0:
            raise ValueError(f"packet born dead: ttl={self.ttl}")

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
        return replace(
            self,
            packet_id=next(_packet_ids),
            hops=list(self.hops),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.proto} {self.size}B ttl={self.ttl}>"
        )
