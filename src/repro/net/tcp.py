"""TCP: reliable byte streams with Reno congestion control.

This is a functional TCP, not a pantomime: three-way handshake,
sequence numbers over a real byte stream, cumulative ACKs, sliding
window bounded by min(cwnd, receiver window), slow start, congestion
avoidance, fast retransmit on three duplicate ACKs, fast recovery,
Jacobson/Karn RTO estimation with exponential backoff, and FIN
teardown.  The paper's §5.2 discusses why plain TCP struggles over
wireless links; the mobile variants in :mod:`repro.net.mobile` hook the
mechanisms implemented here.

Simplifications relative to RFC 793/5681 are noted inline: no delayed
ACKs (every data segment is ACKed, which makes duplicate-ACK behaviour
crisp), no SACK, no Nagle, unbounded send buffer, and an abbreviated
close (FIN/ACK without TIME_WAIT).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..sim import Counter, Event, Simulator, Store, Timeout
from .addressing import IPAddress
from .node import Node
from .packet import PROTO_TCP, Packet

__all__ = ["TCPSegment", "TCPConnection", "TCPListener", "TCPStack", "tcp_stack"]

TCP_HEADER_BYTES = 20
DEFAULT_MSS = 1460
DEFAULT_RWND = 65535
MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0
DUPACK_THRESHOLD = 3


@dataclass(slots=True)
class TCPSegment:
    """A TCP segment as carried in a Packet payload (slotted: one is
    allocated for every data/ACK exchange on every connection)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: frozenset = frozenset()
    data: bytes = b""
    window: int = DEFAULT_RWND

    @property
    def syn(self) -> bool:
        return "SYN" in self.flags

    @property
    def is_ack(self) -> bool:
        return "ACK" in self.flags

    def __repr__(self) -> str:  # pragma: no cover
        flags = "|".join(sorted(self.flags)) or "-"
        return (
            f"<TCP {self.src_port}->{self.dst_port} seq={self.seq} "
            f"ack={self.ack} {flags} len={len(self.data)}>"
        )


# Hot-path constants: every emitted segment takes one of these, so
# _emit builds no frozenset of its own (only a SYN sent after the
# handshake gains an ACK).
_ACK_FLAGS = frozenset(("ACK",))
_SYN_FLAGS = frozenset(("SYN",))
_SYN_ACK_FLAGS = frozenset(("SYN", "ACK"))
_FIN_ACK_FLAGS = frozenset(("FIN", "ACK"))


@dataclass(slots=True)
class _SendBufferEntry:
    seq: int
    data: bytes
    sent_at: float = 0.0
    retransmitted: bool = False


class TCPConnection:
    """One endpoint of an established (or establishing) connection."""

    # Slotted: a gateway fleet keeps a thousand connections alive at
    # once.  __weakref__ lets a weak reference watch one being freed.
    __slots__ = (
        "stack", "sim", "local_port", "remote_addr", "remote_port", "mss",
        "_src",
        "state", "snd_una", "snd_nxt", "iss", "cwnd", "ssthresh",
        "peer_window", "_send_queue", "_inflight", "_dupacks",
        "_in_fast_recovery", "_recovery_point", "_send_wakeup", "rcv_nxt",
        "irs", "_reorder", "_rx_stream", "_rx_buffer", "fin_received",
        "srtt", "rttvar", "rto", "_timer", "_rto_deadline",
        "_timer_fires_at", "established_event", "closed_event", "stats",
        "trace", "__weakref__")

    # Connection states.
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_SENT = "FIN_SENT"
    CLOSE_WAIT = "CLOSE_WAIT"

    def __init__(
        self,
        stack: "TCPStack",
        local_port: int,
        remote_addr: IPAddress,
        remote_port: int,
        mss: int = DEFAULT_MSS,
    ):
        self.stack = stack
        self.sim: Simulator = stack.node.sim
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.mss = mss
        # Source of every emitted packet: a node's primary address is
        # fixed once it has one.
        self._src = stack.node.primary_address
        self.state = TCPConnection.CLOSED

        # --- send side -----------------------------------------------------
        self.snd_una = 0          # oldest unacknowledged sequence number
        self.snd_nxt = 0          # next sequence number to send
        self.iss = 0              # initial send sequence
        self.cwnd = float(mss)    # congestion window (bytes)
        self.ssthresh = float(DEFAULT_RWND)
        self.peer_window = DEFAULT_RWND
        # App data not yet segmented; _pump() consumes it head first.
        # A list: it holds a chunk or two, and is usually empty.
        self._send_queue: list[bytes] = []
        self._inflight: list[_SendBufferEntry] = []
        self._dupacks = 0
        self._in_fast_recovery = False
        # NewReno-style recovery point: while snd_una is below this,
        # every partial ACK retransmits the next hole immediately
        # instead of waiting out another (backed-off) RTO.
        self._recovery_point = 0
        self._send_wakeup: Optional[Event] = None

        # --- receive side ----------------------------------------------------
        self.rcv_nxt = 0
        self.irs = 0
        self._reorder: dict[int, bytes] = {}
        self._rx_stream: Store = Store(self.sim)
        self._rx_buffer = b""
        self.fin_received = False

        # --- timers ----------------------------------------------------------
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        # The retransmission timer is a bare kernel Timeout with a
        # callback, not a spawned process: arming is one allocation,
        # and cancellation tombstones the queue entry so a cancelled
        # timer never wakes anything (see Timeout.cancel).  ACK-driven
        # rearm/cancel is the common case — almost every timer dies.
        self._timer: Optional[Timeout] = None
        # True retransmission deadline and the pending timer's actual
        # fire time; they diverge when arms lazily extend the deadline.
        self._rto_deadline = 0.0
        self._timer_fires_at = 0.0

        # --- lifecycle events --------------------------------------------------
        self.established_event: Event = self.sim.event()
        self.closed_event: Event = self.sim.event()

        self.stats = Counter()
        # Observability: TraceContext stamped onto every emitted Packet,
        # so link-level spans can be stitched to the transaction even
        # after segmentation.  None (untraced) by default.
        self.trace: Any = None

    # ------------------------------------------------------------------ API
    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self.state not in (
            TCPConnection.ESTABLISHED,
            TCPConnection.SYN_SENT,
            TCPConnection.SYN_RCVD,
            TCPConnection.CLOSE_WAIT,
        ):
            raise RuntimeError(f"send() in state {self.state}")
        if not data:
            return
        self._send_queue.append(bytes(data))
        self._pump()

    def recv(self) -> Event:
        """Event yielding the next chunk of received bytes (b"" on FIN)."""
        if self._rx_buffer:
            ev = self.sim.event()
            chunk, self._rx_buffer = self._rx_buffer, b""
            ev.succeed(chunk)
            return ev
        # The store's get event already yields the next chunk (and keeps
        # concurrent callers in FIFO order), so no waiter process is
        # needed here at all.
        return self._rx_stream.get()

    def recv_exactly(self, n: int) -> Event:
        """Event yielding exactly ``n`` bytes (or fewer if FIN arrives)."""
        ev = self.sim.event()
        if len(self._rx_buffer) >= n:
            out, self._rx_buffer = self._rx_buffer[:n], self._rx_buffer[n:]
            ev.succeed(out)
            return ev

        def waiter(env):
            while len(self._rx_buffer) < n:
                chunk = yield self._rx_stream.get()
                if chunk == b"":
                    break
                self._rx_buffer += chunk
            out, self._rx_buffer = self._rx_buffer[:n], self._rx_buffer[n:]
            ev.succeed(out)

        self.sim.spawn(waiter(self.sim), name="tcp-recv-exactly")
        return ev

    def close(self) -> None:
        """Send FIN once all queued data has been transmitted."""
        if self.state in (TCPConnection.CLOSED, TCPConnection.FIN_SENT):
            return

        def closer(env):
            while self._send_queue or self._inflight:
                wake = self._wakeup_event()
                yield wake
            if self.state in (TCPConnection.ESTABLISHED, TCPConnection.CLOSE_WAIT):
                self.state = TCPConnection.FIN_SENT
                self._emit(flags=_FIN_ACK_FLAGS)
                self.snd_nxt += 1  # FIN consumes a sequence number

        self.sim.spawn(closer(self.sim), name="tcp-close")

    # --------------------------------------------------------- connection setup
    def open_active(self) -> None:
        """Client side: send SYN."""
        self.iss = self.stack.next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.state = TCPConnection.SYN_SENT
        self._emit(flags=_SYN_FLAGS, seq=self.iss)
        self._arm_timer()

    def open_passive_reply(self, syn_segment: TCPSegment) -> None:
        """Server side: got SYN, send SYN|ACK."""
        self.irs = syn_segment.seq
        self.rcv_nxt = syn_segment.seq + 1
        self.iss = self.stack.next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.state = TCPConnection.SYN_RCVD
        self._emit(flags=_SYN_ACK_FLAGS, seq=self.iss)
        self._arm_timer()

    # ------------------------------------------------------------- segment I/O
    def _emit(
        self,
        flags: frozenset,
        seq: Optional[int] = None,
        data: bytes = b"",
    ) -> None:
        if "ACK" not in flags and self.state != TCPConnection.SYN_SENT:
            flags = flags | _ACK_FLAGS
        packet = Packet(
            self._src, self.remote_addr, PROTO_TCP,
            TCPSegment(self.local_port, self.remote_port,
                       self.snd_nxt if seq is None else seq, self.rcv_nxt,
                       flags, data),
            len(data) + TCP_HEADER_BYTES,
            trace=self.trace,
        )
        counts = self.stats._counts
        counts["segments_sent"] = counts.get("segments_sent", 0) + 1
        self.stack.node.send_ip(packet)

    def handle_segment(self, segment: TCPSegment, packet: Packet) -> None:
        """Demultiplexed inbound segment processing."""
        data = segment.data
        if data and packet.trace is not None:
            # Adopt the sender's trace context: the peer's spans (and our
            # replies) stitch to the same transaction without spending a
            # single wire byte on it.  Data segments only — a straggling
            # ACK from a previous request must not revert the context.
            self.trace = packet.trace
        flags = segment.flags
        if "SYN" in flags:
            if "ACK" in flags:
                self._on_synack(segment)
            # A bare SYN: simultaneous open is out of scope.
            return
        if "ACK" in flags:
            ack = segment.ack
            if self.state == TCPConnection.SYN_RCVD and ack == self.snd_nxt:
                self._become_established()
            # The ACK path: a new ACK slides the window, a bare repeat is
            # a duplicate; either may let queued data out and wakes a
            # closer waiting for the queue to drain.
            self.peer_window = segment.window
            if ack > self.snd_una:
                self._on_new_ack(ack)
            elif ack == self.snd_una and self._inflight and not data \
                    and "FIN" not in flags:
                self._on_dupack()
            if self._send_queue:
                self._pump()
            wakeup = self._send_wakeup
            if wakeup is not None and not wakeup.triggered:
                wakeup.succeed()
        if data:
            self._on_data(segment)
        if "FIN" in flags:
            self._on_fin(segment)

    def _on_synack(self, segment: TCPSegment) -> None:
        if self.state != TCPConnection.SYN_SENT:
            return
        if segment.ack != self.snd_nxt:
            return
        self.irs = segment.seq
        self.rcv_nxt = segment.seq + 1
        self.snd_una = segment.ack
        self._become_established()
        self._emit(flags=_ACK_FLAGS)

    def _become_established(self) -> None:
        self.state = TCPConnection.ESTABLISHED
        if not self.established_event.triggered:
            # No value: connection -> event -> value -> connection
            # would be a cycle, keeping every closed connection alive
            # until the cyclic GC runs.  Waiters only need the firing.
            self.established_event.succeed()
        self._cancel_timer()
        self._pump()

    # -------------------------------------------------------------- send engine
    def _pump(self) -> None:
        """Transmit as much queued data as the window allows."""
        state = self.state
        if state != TCPConnection.ESTABLISHED and \
                state != TCPConnection.CLOSE_WAIT:
            return
        queue = self._send_queue
        sent_any = False
        while queue:
            # The usable window, read afresh per segment: a loopback
            # ACK can move it while _emit runs.
            usable = int(min(self.cwnd, float(self.peer_window))) - \
                (self.snd_nxt - self.snd_una)
            if usable < 1:
                break
            chunk = queue[0]
            take = min(len(chunk), self.mss, usable)
            if take < len(chunk):
                data = chunk[:take]
                queue[0] = chunk[take:]
            else:
                data = chunk
                queue.pop(0)
            seq = self.snd_nxt
            self._inflight.append(_SendBufferEntry(seq, data, self.sim.now))
            self._emit(_ACK_FLAGS, seq, data)
            self.snd_nxt += len(data)
            sent_any = True
        if sent_any:
            self._arm_timer()

    def _wakeup_event(self) -> Event:
        if self._send_wakeup is None or self._send_wakeup.triggered:
            self._send_wakeup = self.sim.event()
        return self._send_wakeup

    # ---------------------------------------------------------------- ACK path
    def _on_new_ack(self, ack: int) -> None:
        acked_bytes = ack - self.snd_una
        self.snd_una = ack
        self._dupacks = 0

        # RTT sampling (Karn: skip retransmitted segments).
        now = self.sim.now
        remaining: list[_SendBufferEntry] = []
        for entry in self._inflight:
            if entry.seq + len(entry.data) <= ack:
                if not entry.retransmitted:
                    self._update_rtt(now - entry.sent_at)
            else:
                remaining.append(entry)
        self._inflight = remaining

        if ack < self._recovery_point and self._inflight:
            # Partial ACK during loss recovery: the next hole is now at
            # the front of the inflight list — retransmit it at once.
            self._retransmit_first()
        else:
            self._recovery_point = 0

        if self._in_fast_recovery:
            # Reno: deflate on the ACK of the recovery point.
            self.cwnd = self.ssthresh
            self._in_fast_recovery = ack < self._recovery_point
        elif self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)  # slow start
        else:
            self.cwnd += self.mss * self.mss / self.cwnd  # congestion avoidance
        self.cwnd = max(self.cwnd, float(self.mss))

        if self._inflight:
            self._arm_timer()
        else:
            self._cancel_timer()
        if self.state == TCPConnection.FIN_SENT and ack >= self.snd_nxt:
            self._finish_close()

    def _on_dupack(self) -> None:
        self._dupacks += 1
        self.stats.incr("dupacks")
        if self._in_fast_recovery:
            self.cwnd += self.mss  # inflate during recovery
            self._pump()
            return
        if self._dupacks >= DUPACK_THRESHOLD:
            flight = max(self.snd_nxt - self.snd_una, self.mss)
            self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
            self.cwnd = self.ssthresh + DUPACK_THRESHOLD * self.mss
            self._in_fast_recovery = True
            self._recovery_point = self.snd_nxt
            self.stats.incr("fast_retransmits")
            self._retransmit_first()

    def _retransmit_first(self) -> None:
        if not self._inflight:
            return
        entry = self._inflight[0]
        entry.retransmitted = True
        entry.sent_at = self.sim.now
        self._emit(flags=_ACK_FLAGS, seq=entry.seq, data=entry.data)
        self.stats.incr("retransmitted_segments")
        self._arm_timer()

    # ---------------------------------------------------------------- RTT/RTO
    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            alpha, beta = 1 / 8.0, 1 / 4.0
            self.rttvar = (1 - beta) * self.rttvar + beta * abs(self.srtt - sample)
            self.srtt = (1 - alpha) * self.srtt + alpha * sample
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4 * self.rttvar))

    def _arm_timer(self) -> None:
        # Lazy re-arm: almost every arm call merely *extends* the
        # deadline (each ACK restarts the clock), so instead of
        # cancelling and reallocating a kernel Timeout per segment we
        # record the true deadline and keep any pending timer that fires
        # no later than it.  An early fire re-checks the deadline in
        # _on_timer and re-arms once for the remainder — the retransmit
        # still happens at exactly ``now + rto`` virtual seconds.
        deadline = self.sim.now + self.rto
        self._rto_deadline = deadline
        if self._timer is not None:
            if self._timer_fires_at <= deadline:
                return
            # The deadline moved *earlier* (RTO shrank after an RTT
            # update); a late fire would delay the retransmit, so this
            # rare case really does replace the timer.
            self._timer.cancel()
        timer = Timeout(self.sim, self.rto)
        timer.callbacks.append(self._on_timer)
        self._timer = timer
        self._timer_fires_at = deadline

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timer(self, event: Timeout) -> None:
        if event is not self._timer:
            return  # stale fire; a rearm superseded this timer
        self._timer = None
        deadline = self._rto_deadline
        now = self.sim.now
        if now < deadline:
            # The deadline was pushed out while this timer was pending;
            # sleep the remainder instead of retransmitting early.
            timer = Timeout(self.sim, deadline - now)
            timer.callbacks.append(self._on_timer)
            self._timer = timer
            self._timer_fires_at = deadline
            return
        self._on_rto()

    def _on_rto(self) -> None:
        """Retransmission timeout: collapse the window, resend, back off."""
        if self.state == TCPConnection.SYN_SENT:
            self.stats.incr("syn_retransmits")
            self._emit(flags=_SYN_FLAGS, seq=self.iss)
            self.rto = min(MAX_RTO, self.rto * 2)
            self._arm_timer()
            return
        if self.state == TCPConnection.SYN_RCVD:
            self._emit(flags=_SYN_ACK_FLAGS, seq=self.iss)
            self.rto = min(MAX_RTO, self.rto * 2)
            self._arm_timer()
            return
        if self.state == TCPConnection.FIN_SENT and not self._inflight:
            # Our FIN was lost; resend it.
            self.stats.incr("fin_retransmits")
            self._emit(flags=_FIN_ACK_FLAGS, seq=self.snd_nxt - 1)
            self.rto = min(MAX_RTO, self.rto * 2)
            self._arm_timer()
            return
        if not self._inflight:
            return
        self.stats.incr("timeouts")
        flight = max(self.snd_nxt - self.snd_una, self.mss)
        self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self._dupacks = 0
        self._in_fast_recovery = False
        self._recovery_point = self.snd_nxt
        self.rto = min(MAX_RTO, self.rto * 2)  # Karn backoff
        self._retransmit_first()

    # ------------------------------------------------------------ receive path
    def _on_data(self, segment: TCPSegment) -> None:
        seq, data = segment.seq, segment.data
        if seq == self.rcv_nxt:
            self.rcv_nxt += len(data)
            self._rx_stream.try_put(data)
            # Drain contiguous out-of-order segments.
            while self.rcv_nxt in self._reorder:
                buffered = self._reorder.pop(self.rcv_nxt)
                self.rcv_nxt += len(buffered)
                self._rx_stream.try_put(buffered)
        elif seq > self.rcv_nxt:
            self._reorder[seq] = data
            self.stats.incr("out_of_order")
        else:
            self.stats.incr("duplicate_data")
        # ACK everything (no delayed ACK): dupacks flow naturally on gaps.
        self._emit(flags=_ACK_FLAGS)

    def _on_fin(self, segment: TCPSegment) -> None:
        if self.fin_received:
            self._emit(flags=_ACK_FLAGS)
            return
        self.fin_received = True
        self.rcv_nxt = segment.seq + len(segment.data) + 1
        self._rx_stream.try_put(b"")  # EOF marker for readers
        self._emit(flags=_ACK_FLAGS)
        if self.state == TCPConnection.ESTABLISHED:
            self.state = TCPConnection.CLOSE_WAIT
        elif self.state == TCPConnection.FIN_SENT:
            self._finish_close()

    def _finish_close(self) -> None:
        self.state = TCPConnection.CLOSED
        self._cancel_timer()
        if not self.closed_event.triggered:
            self.closed_event.succeed()
        self.stack._forget(self)

    # ------------------------------------------------------------------ mobile
    def signal_handoff_complete(self) -> None:
        """Caceres/Iftode fast retransmission trigger (see tcp_freeze).

        Called on the *receiving* endpoint right after a handoff: emits
        three duplicate ACKs so the fixed sender fast-retransmits
        immediately instead of idling until its (backed-off) RTO fires.
        """
        for _ in range(DUPACK_THRESHOLD):
            self._emit(flags=_ACK_FLAGS)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TCPConnection {self.stack.node.name}:{self.local_port} -> "
            f"{self.remote_addr}:{self.remote_port} {self.state}>"
        )


class TCPListener:
    """A passive socket producing TCPConnection objects."""

    def __init__(self, stack: "TCPStack", port: int, mss: int):
        self.stack = stack
        self.port = port
        self.mss = mss
        self._backlog: Store = Store(stack.node.sim)

    def accept(self) -> Event:
        """Event yielding the next established TCPConnection."""
        return self._backlog.get()

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class TCPStack:
    """Per-node TCP: port table, connection demux, ISN generation."""

    def __init__(self, node: Node, mss: int = DEFAULT_MSS):
        if getattr(node, "_tcp_stack", None) is not None:
            raise RuntimeError(
                f"node {node.name} already has a TCP stack; share it instead"
            )
        node._tcp_stack = self
        self.node = node
        self.mss = mss
        self._listeners: dict[int, TCPListener] = {}
        self._connections: dict[tuple, TCPConnection] = {}
        self._ephemeral = itertools.count(49152)
        self._isn = itertools.count(1000, 64000)
        node.register_protocol(PROTO_TCP, self._on_packet)

    def next_isn(self) -> int:
        return next(self._isn)

    def listen(self, port: int, mss: Optional[int] = None) -> TCPListener:
        if port in self._listeners:
            raise RuntimeError(f"port {port} already listening on {self.node.name}")
        listener = TCPListener(self, port, mss or self.mss)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_addr: IPAddress, remote_port: int,
                mss: Optional[int] = None) -> TCPConnection:
        """Begin an active open; wait on ``conn.established_event``."""
        local_port = next(self._ephemeral)
        conn = TCPConnection(
            self, local_port, remote_addr, remote_port, mss=mss or self.mss
        )
        key = (remote_addr.value, remote_port, local_port)
        self._connections[key] = conn
        conn.open_active()
        return conn

    def _on_packet(self, node: Node, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            node.stats.incr("tcp_malformed")
            return
        # Keyed by the address's int: hashing the IPAddress dataclass
        # runs a Python-level __hash__ on every segment.
        key = (packet.src.value, segment.src_port, segment.dst_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment, packet)
            return
        if segment.syn and not segment.is_ack:
            listener = self._listeners.get(segment.dst_port)
            if listener is None:
                node.stats.incr("tcp_conn_refused")
                return
            conn = TCPConnection(
                self, segment.dst_port, packet.src, segment.src_port,
                mss=listener.mss,
            )
            self._connections[key] = conn
            conn.open_passive_reply(segment)

            def hand_to_backlog(env, conn=conn, listener=listener):
                yield conn.established_event
                listener._backlog.try_put(conn)

            node.sim.spawn(hand_to_backlog(node.sim), name="tcp-accept")
            return
        node.stats.incr("tcp_no_connection")

    def _forget(self, conn: TCPConnection) -> None:
        key = (conn.remote_addr.value, conn.remote_port, conn.local_port)
        self._connections.pop(key, None)


def tcp_stack(node: Node, mss: int = DEFAULT_MSS) -> TCPStack:
    """The node's TCP stack, creating one on first use."""
    existing = getattr(node, "_tcp_stack", None)
    if existing is not None:
        return existing
    return TCPStack(node, mss=mss)
