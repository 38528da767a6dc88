"""Snoop protocol: base-station packet caching (Balakrishnan et al. [1]).

A :class:`SnoopAgent` sits on the base station's forwarding path and
keeps the fixed-host sender blissfully unaware of wireless losses:

* data segments flowing *toward* the mobile are cached (and forwarded
  normally);
* duplicate ACKs flowing *from* the mobile are interpreted as a
  wireless loss: the agent retransmits the missing segment from its
  cache **locally** and suppresses the duplicate ACK so the fixed
  sender neither fast-retransmits nor halves its congestion window.

Unlike split connection, end-to-end TCP semantics are preserved — the
fixed host's ACKs still come from the mobile itself.
"""

from __future__ import annotations

from typing import Optional

from ...sim import Counter
from ..node import Interface, Node
from ..packet import PROTO_TCP, Packet
from ..tcp import TCPSegment

__all__ = ["SnoopAgent"]

# Segments cached per flow; later ones are forwarded uncached.
MAX_CACHED_SEGMENTS = 256

# Flow key: (fixed_addr, fixed_port, mobile_addr, mobile_port)
FlowKey = tuple


class _FlowState:
    def __init__(self, cache: dict[int, Packet] | None = None,
                 last_ack: int = -1, dupacks: int = 0,
                 retransmitted_for: int = -1,
                 dupacks_since_retransmit: int = 0):
        self.cache = {} if cache is None else cache  # seq -> packet
        self.last_ack = last_ack
        self.dupacks = dupacks
        self.retransmitted_for = retransmitted_for
        self.dupacks_since_retransmit = dupacks_since_retransmit


class SnoopAgent:
    """Per-base-station snoop cache over TCP flows toward mobile hosts."""

    def __init__(self, base_station: Node, mobile_addresses: set):
        self.node = base_station
        self.mobile_addresses = set(mobile_addresses)
        self.flows: dict[FlowKey, _FlowState] = {}
        self.stats = Counter()
        base_station.rx_taps.append(self._tap)

    def _tap(self, packet: Packet, iface: Interface) -> bool:
        if packet.proto != PROTO_TCP:
            return False
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return False
        if packet.dst in self.mobile_addresses and segment.data:
            self._on_data_toward_mobile(packet, segment)
            return False  # forward normally
        if packet.src in self.mobile_addresses and segment.is_ack and \
                not segment.data:
            return self._on_ack_from_mobile(packet, segment)
        return False

    # -- data path: fixed -> mobile -------------------------------------------
    def _on_data_toward_mobile(self, packet: Packet, segment: TCPSegment) -> None:
        key = (packet.src, segment.src_port, packet.dst, segment.dst_port)
        flow = self.flows.setdefault(key, _FlowState())
        if len(flow.cache) < MAX_CACHED_SEGMENTS:
            flow.cache[segment.seq] = packet.copy()
            self.stats.incr("cached_segments")

    # -- ack path: mobile -> fixed -------------------------------------------
    def _on_ack_from_mobile(self, packet: Packet, segment: TCPSegment) -> bool:
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        flow = self.flows.get(key)
        if flow is None:
            return False
        ack = segment.ack
        if ack > flow.last_ack:
            # New ACK: clean the cache below it and pass it through.
            flow.last_ack = ack
            flow.dupacks = 0
            for seq in [s for s in flow.cache if s < ack]:
                del flow.cache[seq]
            return False
        if ack == flow.last_ack:
            flow.dupacks += 1
            self.stats.incr("dupacks_seen")
            cached = flow.cache.get(ack)
            if cached is not None:
                if flow.retransmitted_for != ack:
                    # First dupack for this hole: local retransmission.
                    flow.retransmitted_for = ack
                    flow.dupacks_since_retransmit = 0
                    self._local_retransmit(cached)
                else:
                    # The local copy may itself have been lost on the
                    # wireless hop; retry every few further dupacks
                    # (poor man's snoop timer).
                    flow.dupacks_since_retransmit += 1
                    if flow.dupacks_since_retransmit >= 3:
                        flow.dupacks_since_retransmit = 0
                        self._local_retransmit(cached)
                self.stats.incr("suppressed_dupacks")
                return True  # suppress the dupack
            # Not our loss (hole not in cache): let the sender handle it.
            return False
        return False

    def _local_retransmit(self, cached: Packet) -> None:
        self.node.forward(cached.copy(), originating=True)
        self.stats.incr("local_retransmissions")
