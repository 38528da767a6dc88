"""Point-to-point links with bandwidth, propagation delay, loss and queuing.

A :class:`Link` is full duplex: each direction has its own FIFO transmit
queue and its own transmitter.  Serialization time is
``size * 8 / bandwidth``; after serialization the packet propagates for
``delay`` seconds and is handed to the remote interface's node.

Loss is Bernoulli per packet, drawn from a named random stream so runs
are reproducible.  A full transmit queue drops arriving packets
(tail-drop), which is what gives TCP its congestion signal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs import end_span, start_span
from ..sim import Counter, RandomStream, Simulator
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Interface

__all__ = ["Link", "LinkEnd"]


class LinkEnd:
    """One direction of a link: a bounded FIFO and its transmitter.

    The transmitter is a chain of scheduled calls, not a process: a
    wakeup call starts a packet, an airtime grant (shared media only)
    and the serialization delay follow, and :meth:`_sent` settles the
    frame and takes the next packet.  The kernel entries, and the order
    they are pushed in, are those of a process looping get → grant →
    timeout.  A frame that survives serialization propagates for the
    link's delay and counts as delivered only when :meth:`_arrive`
    hands it to the peer.
    """

    def __init__(self, link: "Link", sim: Simulator, queue_capacity: int):
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1: {queue_capacity}")
        self.link = link
        self.sim = sim
        self.capacity = queue_capacity
        self.queue: list[Packet] = []
        self.peer_iface: Optional["Interface"] = None
        # Idle: no packet in flight or waking, so enqueue wakes the
        # transmitter.  Then the in-flight packet, its span, attempt
        # count, per-attempt serialization time and airtime grant.
        self._idle = False
        self._packet: Optional[Packet] = None
        self._span = self._grant = None
        self._attempts = 0
        self._frame_s = 0.0
        sim._call(self._take_next)

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False if tail-dropped."""
        if self._idle:
            self._idle = False
            self.sim._call(self._begin, packet)
        elif len(self.queue) >= self.capacity:
            self.link.stats.incr("queue_drops")
            return False
        else:
            self.queue.append(packet)
        return True

    def _take_next(self, _=None) -> None:
        self._packet = self._span = self._grant = None
        if self.queue:
            self.sim._call(self._begin, self.queue.pop(0))
        else:
            self._idle = True

    def _begin(self, packet: Packet) -> None:
        self._packet = packet
        # Only packets that carry a TraceContext get a span; untraced
        # traffic must not seed root traces of its own.
        if packet.trace is not None:
            self._span = start_span(
                self.sim, f"{self.link.name}.tx", self.link.layer,
                parent=packet.trace, bytes=packet.size,
            )
        self._attempts = 0
        self._attempt()

    def _attempt(self) -> None:
        self._attempts += 1
        link = self.link
        rate = link.transmit_rate(self)
        if rate <= 0:
            link.stats.incr("no_signal_drops")
            end_span(self.sim, self._span, dropped="no_signal")
            self._take_next()
            return
        frame_s = self._packet.size * 8 / rate
        if link.airtime is None:
            # A dedicated medium: serialize at once.
            self.sim._call_after(frame_s, self._sent)
        else:
            self._frame_s = frame_s
            self._grant = link.request_airtime()
            self._grant.callbacks.append(self._serialize)

    def _serialize(self, _grant) -> None:
        """The airtime grant came: serialize the frame."""
        self.sim._call_after(self._frame_s, self._sent)

    def _sent(self, _=None) -> None:
        link = self.link
        sim = self.sim
        packet, span = self._packet, self._span
        if self._grant is not None:
            link.airtime.release(self._grant)
        if link.is_down:
            link.stats.incr("down_drops")
            end_span(sim, span, dropped="down")
        elif link.frame_delivered(self, packet):
            # Propagation is a call at exactly now + delay.
            sim._call_after(link.delay, self._arrive, (packet, span))
        else:
            link.stats.incr("frame_errors")
            if self._attempts <= link.retry_limit:
                self._attempt()
                return
            link.stats.incr("loss_drops")
            end_span(sim, span, dropped="loss", attempts=self._attempts)
        # Take the next packet: _take_next, inlined to save a frame
        # on every hop.
        self._packet = self._span = self._grant = None
        if self.queue:
            sim._call(self._begin, self.queue.pop(0))
        else:
            self._idle = True

    def _arrive(self, hop: tuple) -> None:
        """The frame reaches the far end: the peer interface's node
        takes it, or it is counted where it is lost."""
        packet, span = hop
        link = self.link
        if link.is_down:
            # The link went down while the frame propagated.
            link.stats.incr("down_drops")
            end_span(self.sim, span, dropped="down")
            return
        iface = self.peer_iface
        if iface is not None and iface.is_up:
            # Bumped in place, not through Counter.incr.
            counts = link.stats._counts
            counts["delivered"] = counts.get("delivered", 0) + 1
            counts["bytes_delivered"] = \
                counts.get("bytes_delivered", 0) + packet.size
            iface.node.enqueue_rx(packet, iface)
        elif iface is not None:
            # The receiving interface was detached.
            iface.node.stats.incr("iface_down_drops")
        if span is not None:  # skips a call on every untraced hop
            end_span(self.sim, span)


class Link:
    """A full-duplex point-to-point link between two interfaces."""

    # Observability layer for link.tx spans; wireless subclasses override.
    layer = "wired"

    def __init__(
        self,
        sim: Simulator,
        name: str = "link",
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        queue_capacity: int = 64,
        loss_stream: Optional[RandomStream] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate out of [0,1]: {loss_rate}")
        if loss_rate > 0 and loss_stream is None:
            raise ValueError("loss_rate > 0 requires a loss_stream")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.loss_rate = loss_rate
        self._loss_stream = loss_stream
        self.is_down = False
        self.stats = Counter()
        # Wired links are full duplex with no local retries; wireless
        # subclasses share one airtime resource and retry lost frames.
        self.airtime = None
        self.retry_limit = 0
        self.ends = (
            LinkEnd(self, sim, queue_capacity),
            LinkEnd(self, sim, queue_capacity),
        )
        self._attached: list[Optional["Interface"]] = [None, None]

    def attach(self, iface: "Interface") -> int:
        """Attach an interface to the next free end; returns the end index."""
        for idx in (0, 1):
            if self._attached[idx] is None:
                self._attached[idx] = iface
                # Traffic entering end idx exits to the *other* side's iface.
                self.ends[idx].peer_iface = None  # set when both attached
                self._rewire()
                return idx
        raise RuntimeError(f"link {self.name} already has two interfaces")

    def _rewire(self) -> None:
        self.ends[0].peer_iface = self._attached[1]
        self.ends[1].peer_iface = self._attached[0]

    # -- medium behaviour (overridden by wireless links) -----------------
    def request_airtime(self):
        """Request the shared medium (only links with ``airtime`` do).

        Wireless subclasses with QoS override this to pass a priority.
        """
        return self.airtime.request()

    def transmit_rate(self, end: LinkEnd) -> float:
        """Bit rate for the next frame on this end (0 = no signal)."""
        return self.bandwidth_bps

    def frame_delivered(self, end: LinkEnd, packet: Packet) -> bool:
        """Whether one frame transmission attempt succeeds."""
        if self._loss_stream is not None and \
                self._loss_stream.chance(self.loss_rate):
            return False
        return True

    def other_iface(self, iface: "Interface") -> Optional["Interface"]:
        if iface is self._attached[0]:
            return self._attached[1]
        if iface is self._attached[1]:
            return self._attached[0]
        raise RuntimeError(f"{iface} is not attached to link {self.name}")

    # -- fault injection -------------------------------------------------
    def take_down(self) -> None:
        self.is_down = True

    def bring_up(self) -> None:
        self.is_down = False
