"""Pluggable event schedulers for the simulation kernel.

The kernel's total order over scheduled events is the tuple
``(time, priority, seq)``: virtual time first, then priority (0 for
interrupts, 1 for everything else), then a global monotonic sequence
number that makes every key unique and same-time dispatch FIFO.  A
scheduler stores ``(time, priority, seq, event)`` entries and hands
them back in exactly that order; which data structure does the storing
is what this module makes pluggable.

Two implementations ship:

* :class:`HeapScheduler` — the original flat binary heap
  (``heapq``).  O(log n) per operation, fully general, and the
  reference the A/B determinism guard compares against.
* :class:`CalendarScheduler` — a calendar queue (bucketed time wheel,
  Brown 1988) specialised for this simulation's event mix.  The huge
  majority of pushes are *immediate* (an event triggered at the current
  instant: process resumes, Store handoffs, condition fires); those go
  to a plain FIFO deque because the global sequence number already
  sorts them.  Real future timeouts go to the wheel, whose bucket
  width and count recalibrate automatically as the pending population
  grows and shrinks.  Interrupts (priority 0) are rare and keep a tiny
  private heap.

Both schedulers share the tombstone convention for cancelled
timeouts: :meth:`repro.sim.kernel.Timeout.cancel` marks the event and
bumps ``scheduler.tombstones`` instead of hunting the entry down.  Dead
entries are dropped — uncounted, without running callbacks — the moment
any pop or peek reaches them, so ``live_count`` and
:meth:`Simulator.peek` describe only events that will actually fire.

The module-level default (used by every ``Simulator()`` constructed
without an explicit choice) is the calendar queue; ``--scheduler
heap|calendar`` on the bench CLI and :func:`scheduler_override` select
per-run, and ``repro.perf.scheduler_check`` holds the two to
byte-identical results.
"""

from __future__ import annotations

# The one sanctioned heapq import site for event scheduling — see the
# direct-heapq lint rule in repro.analysis.rules.perf.
import heapq
from contextlib import contextmanager
from typing import Any, Iterable, Optional

__all__ = [
    "Scheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "make_scheduler",
    "default_scheduler",
    "set_default_scheduler",
    "scheduler_override",
]

_INF = float("inf")


class Scheduler:
    """Interface every kernel scheduler implements.

    Entries are ``(time, priority, seq, event)`` tuples; the scheduler
    never inspects the event beyond its ``_cancelled`` flag.  The
    ``urgent_pending`` attribute is the batched-dispatch handshake: it
    is set whenever a priority != 1 entry is pushed, so the kernel can
    notice mid-batch that an interrupt arrived and must preempt the
    remaining same-time batch entries (see ``Simulator.run``); the next
    ``pop_batch`` clears it.
    """

    name = "base"

    #: Cancelled-but-not-yet-dropped entries (see Timeout.cancel).
    tombstones: int

    def push(self, time: float, priority: int, seq: int, event: Any) -> None:
        """Insert a general entry (any priority, any future time)."""
        raise NotImplementedError

    def push_now(self, time: float, seq: int, event: Any) -> None:
        """Fast path: priority-1 entry at the current instant."""
        raise NotImplementedError

    def pop_batch(self, until: Optional[float]) -> list:
        """All live entries sharing the earliest time, in order.

        Returns ``[]`` when nothing is pending or the earliest live
        entry lies beyond ``until``.  Cancelled entries encountered on
        the way are dropped silently (tombstone bookkeeping included).

        The batch is also the unit of the commutativity contract: the
        entries share a timestamp with no intra-batch causal edge
        through the kernel, so a parallel core may dispatch them
        concurrently only if they commute.  The race sanitizer
        (``repro.analysis.races``) hooks :meth:`Simulator.run` right
        after this call to record per-entry read/write sets and — on
        replay — hand back the batch in flipped order to prove or
        refute a flagged hazard.
        """
        raise NotImplementedError

    def pop_one(self) -> Optional[tuple]:
        """The single earliest live entry, or None when empty."""
        raise NotImplementedError

    def requeue(self, entries: list) -> None:
        """Put back the unconsumed tail of a batch (urgent preemption)."""
        raise NotImplementedError

    def peek_time(self) -> float:
        """Earliest live entry's time, or +inf; drops leading tombstones."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Raw entry count, tombstones included."""
        raise NotImplementedError

    def live_count(self) -> int:
        """Entries that will actually dispatch (raw minus tombstones)."""
        return len(self) - self.tombstones


class HeapScheduler(Scheduler):
    """The reference scheduler: one flat binary heap, exactly the
    pre-refactor kernel's data structure plus tombstone skipping."""

    name = "heap"

    def __init__(self):
        self._heap: list = []
        self.tombstones = 0
        self.urgent_pending = False

    def push(self, time: float, priority: int, seq: int, event: Any) -> None:
        heapq.heappush(self._heap, (time, priority, seq, event))
        if priority != 1:
            self.urgent_pending = True

    def push_now(self, time: float, seq: int, event: Any) -> None:
        heapq.heappush(self._heap, (time, 1, seq, event))

    def pop_batch(self, until: Optional[float]) -> list:
        self.urgent_pending = False
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            if heap[0][3]._cancelled:
                heappop(heap)
                self.tombstones -= 1
                continue
            time = heap[0][0]
            if until is not None and time > until:
                return []
            batch = [heappop(heap)]
            while heap and heap[0][0] == time:
                entry = heappop(heap)
                if entry[3]._cancelled:
                    self.tombstones -= 1
                else:
                    batch.append(entry)
            return batch
        return []

    def pop_one(self) -> Optional[tuple]:
        self.urgent_pending = False
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3]._cancelled:
                self.tombstones -= 1
                continue
            return entry
        return None

    def requeue(self, entries: list) -> None:
        for entry in entries:
            heapq.heappush(self._heap, entry)

    def peek_time(self) -> float:
        heap = self._heap
        while heap:
            if heap[0][3]._cancelled:
                heapq.heappop(heap)
                self.tombstones -= 1
                continue
            return heap[0][0]
        return _INF

    def __len__(self) -> int:
        return len(self._heap)


class CalendarScheduler(Scheduler):
    """Calendar queue with an immediate-FIFO fast lane.

    Three internal lanes, merged head-to-head on pop:

    * ``_now`` — a deque of priority-1 entries pushed *at* the current
      instant.  Because virtual time never decreases and the sequence
      counter is globally monotonic, appends arrive already sorted, so
      both push and pop are O(1).  This lane absorbs the majority of
      kernel traffic (every ``Event.succeed``, process bootstrap and
      Store handoff).
    * ``_urgent`` — a small heap for priority != 1 entries
      (interrupts).  Rare, so the heap never grows past a handful.
    * the wheel — ``_buckets[day & mask]`` holds future priority-1
      entries (timeouts).  Buckets are unsorted until first visited,
      then sorted *descending* once (C timsort) so consuming the
      minimum is ``list.pop()`` from the tail.  ``day`` is
      ``int(time / width)``; an entry is eligible only in its own day,
      which keeps next-year entries (same bucket, ``day + n*buckets``)
      waiting exactly where the sort left them — at the front.

    The wheel resizes (doubling/halving the power-of-two bucket count)
    when its population crosses 2x/0.25x the bucket count, and
    recalibrates the bucket width to ~3x the mean gap between a sample
    of pending timeouts — the classic calendar-queue tuning for O(1)
    amortized behaviour.  A cached minimum key makes repeated peeks of
    a sparse far-future wheel O(1) between pops.
    """

    name = "calendar"

    #: Bounds for the wheel geometry.
    MIN_BUCKETS = 64
    MAX_BUCKETS = 1 << 16
    MIN_WIDTH = 1e-9

    def __init__(self, buckets: int = 256, width: float = 0.05):
        if buckets < 1 or buckets & (buckets - 1):
            raise ValueError(f"buckets must be a power of two: {buckets}")
        if width <= 0:
            raise ValueError(f"bucket width must be positive: {width}")
        self._now: list = []          # deque semantics via index cursor
        self._now_head = 0
        self._urgent: list = []
        self._nb = buckets
        self._mask = buckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: list[list] = [[] for _ in range(buckets)]
        self._dirty = bytearray(buckets)
        self._wheel_total = 0
        self._cur_day = 0
        # Cached (entry, day) of the wheel's minimum; None = unknown.
        # The full 4-tuple is cached (not a sliced key): sequence
        # numbers are globally unique, so ordered comparisons never
        # reach the event object in position 3.
        self._min_entry: Optional[tuple] = None
        self._min_day = 0
        self.tombstones = 0
        self.urgent_pending = False

    # -- pushes ----------------------------------------------------------
    def push_now(self, time: float, seq: int, event: Any) -> None:
        self._now.append((time, 1, seq, event))

    def push(self, time: float, priority: int, seq: int, event: Any) -> None:
        if priority != 1:
            heapq.heappush(self._urgent, (time, priority, seq, event))
            self.urgent_pending = True
            return
        self._wheel_push((time, 1, seq, event))

    def _wheel_push(self, entry: tuple) -> None:
        day = int(entry[0] * self._inv_width)
        index = day & self._mask
        self._buckets[index].append(entry)
        self._dirty[index] = 1
        self._wheel_total += 1
        min_entry = self._min_entry
        if min_entry is not None and entry < min_entry:
            self._min_entry = entry
            self._min_day = day
        if self._wheel_total > 2 * self._nb and self._nb < self.MAX_BUCKETS:
            self._resize(self._nb * 2)

    # -- wheel internals -------------------------------------------------
    def _bucket_min(self, index: int) -> Optional[tuple]:
        """Smallest entry in a bucket (sorts it descending on demand)."""
        bucket = self._buckets[index]
        if not bucket:
            return None
        if self._dirty[index]:
            bucket.sort(reverse=True)
            self._dirty[index] = 0
        return bucket[-1]

    def _wheel_min(self) -> Optional[tuple]:
        """The wheel's earliest entry, walking from the current day;
        caches the answer until that entry is popped."""
        if self._wheel_total == 0:
            return None
        if self._min_entry is not None:
            return self._min_entry
        nb = self._nb
        mask = self._mask
        buckets = self._buckets
        dirty = self._dirty
        inv_width = self._inv_width
        day = self._cur_day
        for steps in range(nb):
            index = day & mask
            bucket = buckets[index]
            entry = None
            if bucket:
                if dirty[index]:
                    bucket.sort(reverse=True)
                    dirty[index] = 0
                entry = bucket[-1]
            if entry is not None and int(entry[0] * inv_width) == day:
                if steps > 32 and self._wheel_total >= 8:
                    # The walk crossed a long run of empty days: the
                    # bucket width is mis-calibrated for the pending
                    # population (which can stay at a stable size and
                    # so never trigger the population-driven resize).
                    # Re-bucket at the same size to recalibrate.
                    self._resize(nb)
                self._min_entry = entry
                self._min_day = int(entry[0] * self._inv_width)
                return entry
            day += 1
        # A full revolution found nothing in-year: the population is
        # sparse and far away.  Direct scan over every bucket tail.
        best = None
        for index in range(nb):
            entry = self._bucket_min(index)
            if entry is not None and (best is None or entry < best):
                best = entry
        if self._wheel_total >= 8:
            self._resize(nb)
        self._min_entry = best
        self._min_day = int(best[0] * self._inv_width)
        return best

    def _wheel_pop_min(self, advance: bool) -> tuple:
        """Remove and return the wheel's earliest entry (min must be
        cached or computable; caller checks the wheel is non-empty).

        ``advance`` moves the search cursor to the popped entry's day.
        That is only sound for a *dispatched* pop, where the kernel
        immediately advances virtual time to the entry's timestamp, so
        every later push lands at or past the cursor.  Tombstone drops
        and peeks must pass False: they can reach far-future entries
        while virtual time is still small, and advancing would strand
        subsequently pushed nearer-term entries behind the cursor.
        """
        if self._min_entry is None:
            self._wheel_min()
        min_day = self._min_day
        index = min_day & self._mask
        bucket = self._buckets[index]
        # Appends since the min was cached leave the bucket dirty; the
        # cached *entry* stays correct (pushes update it) but it is
        # only at the tail after a re-sort.
        if self._dirty[index]:
            bucket.sort(reverse=True)
            self._dirty[index] = 0
        entry = bucket.pop()
        if advance:
            self._cur_day = min_day
        self._wheel_total -= 1
        # Incremental min maintenance: the just-sorted bucket's new tail
        # is the wheel's next minimum whenever it still lies in the same
        # day (every other bucket holds later days only).  This keeps
        # runs of wheel pops O(1) instead of re-walking per pop.
        if bucket and int(bucket[-1][0] * self._inv_width) == min_day:
            self._min_entry = bucket[-1]
        else:
            self._min_entry = None
        if self._wheel_total < self._nb // 4 and self._nb > self.MIN_BUCKETS:
            self._resize(self._nb // 2)
        return entry

    def _resize(self, buckets: int) -> None:
        """Re-bucket every entry into ``buckets`` buckets, recalibrating
        the width from the pending population's time spread."""
        entries = [entry for bucket in self._buckets for entry in bucket]
        self._nb = buckets
        self._mask = buckets - 1
        self._width = self._calibrate_width(entries)
        self._inv_width = 1.0 / self._width
        self._buckets = [[] for _ in range(buckets)]
        self._dirty = bytearray(buckets)
        mask = self._mask
        inv_width = self._inv_width
        for entry in entries:
            index = int(entry[0] * inv_width) & mask
            self._buckets[index].append(entry)
            self._dirty[index] = 1
        self._min_entry = None
        if entries:
            # cur_day must not sit past the earliest entry's day.
            self._cur_day = min(int(entry[0] * inv_width)
                                for entry in entries)

    def _calibrate_width(self, entries: list) -> float:
        """Bucket width ~= 3x the mean inter-event gap of a sample,
        the classic calendar-queue rule; falls back to the current
        width when the sample is degenerate."""
        if len(entries) < 2:
            return self._width
        sample = entries if len(entries) <= 1024 else entries[:1024]
        times = sorted(entry[0] for entry in sample)
        span = times[-1] - times[0]
        if span <= 0.0:
            return self._width
        width = 3.0 * span / len(times)
        return max(width, self.MIN_WIDTH)

    # -- now-lane internals ----------------------------------------------
    def _now_head_entry(self) -> Optional[tuple]:
        now = self._now
        head = self._now_head
        if head >= len(now):
            if now:
                now.clear()
                self._now_head = 0
            return None
        return now[head]

    # -- pops --------------------------------------------------------------
    def _min_entry_source(self):
        """(key, source) of the earliest live entry; drops tombstones.

        source is 'n' (now lane), 'u' (urgent heap) or 'w' (wheel).
        """
        while True:
            best_key = None
            source = ""
            entry = self._now_head_entry()
            if entry is not None:
                best_key = (entry[0], 1, entry[2])
                source = "n"
            if self._urgent:
                top = self._urgent[0]
                key = top[:3]
                if best_key is None or key < best_key:
                    best_key = key
                    source = "u"
            if self._wheel_total:
                key = self._wheel_min()
                if best_key is None or key < best_key:
                    best_key = key
                    source = "w"
            if best_key is None:
                return None, ""
            event = self._take_source_head(source, peek=True)
            if event._cancelled:
                self._take_source_head(source, peek=False)
                self.tombstones -= 1
                continue
            return best_key, source

    def _take_source_head(self, source: str, peek: bool):
        """Head entry (peek) or popped entry's event drop (consume)."""
        if source == "n":
            if peek:
                return self._now[self._now_head][3]
            self._now_head += 1
            return None
        if source == "u":
            if peek:
                return self._urgent[0][3]
            heapq.heappop(self._urgent)
            return None
        if peek:
            entry = self._min_entry
            if entry is None:
                entry = self._wheel_min()
            return entry[3]
        self._wheel_pop_min(advance=False)
        return None

    def _pop_source(self, source: str) -> tuple:
        if source == "n":
            entry = self._now[self._now_head]
            self._now_head += 1
            if self._now_head >= len(self._now):
                self._now.clear()
                self._now_head = 0
            return entry
        if source == "u":
            return heapq.heappop(self._urgent)
        return self._wheel_pop_min(advance=True)

    def pop_batch(self, until: Optional[float]) -> list:
        # Nothing is pushed while this method runs (no callbacks fire
        # here), so the lanes are static apart from our own pops.  Two
        # fast paths cover the overwhelming majority of batches — a
        # now-lane run strictly earlier than the wheel, and a wheel pop
        # with the now lane empty — before the generic merge loop.
        self.urgent_pending = False
        now = self._now
        urgent = self._urgent
        head = self._now_head
        n_len = len(now)
        if not urgent:
            if head < n_len:
                entry = now[head]
                mk = self._min_entry
                if (not entry[3]._cancelled
                        and (not self._wheel_total
                             or (mk is not None and entry[0] < mk[0]))):
                    time = entry[0]
                    if until is not None and time > until:
                        return []
                    batch = [entry]
                    append = batch.append
                    head += 1
                    while head < n_len:
                        entry = now[head]
                        if entry[0] != time:
                            break
                        head += 1
                        if entry[3]._cancelled:
                            self.tombstones -= 1
                        else:
                            append(entry)
                    if head >= n_len:
                        now.clear()
                        head = 0
                    self._now_head = head
                    return batch
            elif self._wheel_total:
                mk = self._min_entry
                if mk is not None and not mk[3]._cancelled:
                    time = mk[0]
                    if until is not None and time > until:
                        return []
                    batch = [self._wheel_pop_min(advance=True)]
                    while self._wheel_total:
                        key = self._min_entry
                        if key is None:
                            key = self._wheel_min()
                        if key[0] != time:
                            break
                        entry = self._wheel_pop_min(advance=True)
                        if entry[3]._cancelled:
                            self.tombstones -= 1
                        else:
                            batch.append(entry)
                    return batch
        while True:
            # Live head of the now lane.
            head = self._now_head
            n_len = len(now)
            while head < n_len and now[head][3]._cancelled:
                head += 1
                self.tombstones -= 1
            if head >= n_len:
                if n_len:
                    now.clear()
                head = 0
                n_len = 0
            self._now_head = head
            n_time = now[head][0] if n_len else None

            # Live head of the urgent heap.
            while urgent and urgent[0][3]._cancelled:
                heapq.heappop(urgent)
                self.tombstones -= 1
            u_time = urgent[0][0] if urgent else None

            # Live minimum of the wheel.
            w_time = None
            while self._wheel_total:
                entry = self._min_entry
                if entry is None:
                    entry = self._wheel_min()
                if entry[3]._cancelled:
                    self._wheel_pop_min(advance=False)
                    self.tombstones -= 1
                    continue
                w_time = entry[0]
                break

            time = n_time
            if u_time is not None and (time is None or u_time < time):
                time = u_time
            if w_time is not None and (time is None or w_time < time):
                time = w_time
            if time is None:
                return []
            if until is not None and time > until:
                return []

            if u_time != time and w_time != time:
                # Now-lane only: drain the contiguous same-time run.
                batch = []
                append = batch.append
                while head < n_len:
                    entry = now[head]
                    if entry[0] != time:
                        break
                    head += 1
                    if entry[3]._cancelled:
                        self.tombstones -= 1
                    else:
                        append(entry)
                if head >= n_len:
                    now.clear()
                    head = 0
                self._now_head = head
                if batch:
                    return batch
                continue  # the whole run was tombstones

            if n_time != time and u_time != time:
                # Wheel only: pop minima while they share the time.
                batch = []
                while True:
                    entry = self._wheel_pop_min(advance=True)
                    if entry[3]._cancelled:
                        self.tombstones -= 1
                    else:
                        batch.append(entry)
                    if not self._wheel_total:
                        break
                    key = self._min_entry
                    if key is None:
                        key = self._wheel_min()
                    if key[0] != time:
                        break
                if batch:
                    return batch
                continue

            # Cross-lane tie or urgent involvement: generic merge.
            batch = []
            while True:
                key, source = self._min_entry_source()
                if key is None or key[0] != time:
                    return batch
                batch.append(self._pop_source(source))

    def pop_one(self) -> Optional[tuple]:
        self.urgent_pending = False
        key, source = self._min_entry_source()
        if key is None:
            return None
        return self._pop_source(source)

    def requeue(self, entries: list) -> None:
        """Unconsumed batch tail back in front of everything later.

        Priority-1 entries re-enter the now lane *before* its current
        contents (their sequence numbers predate anything pushed since
        the batch was extracted); urgent entries rejoin their heap.
        """
        front = [entry for entry in entries if entry[1] == 1]
        if front:
            head = self._now_head
            if head:
                del self._now[:head]
                self._now_head = 0
            self._now[:0] = front
        for entry in entries:
            if entry[1] != 1:
                heapq.heappush(self._urgent, entry)

    def peek_time(self) -> float:
        key, _ = self._min_entry_source()
        return key[0] if key is not None else _INF

    def __len__(self) -> int:
        return (len(self._now) - self._now_head) + len(self._urgent) \
            + self._wheel_total


#: Registry of selectable schedulers.
SCHEDULERS = {
    HeapScheduler.name: HeapScheduler,
    CalendarScheduler.name: CalendarScheduler,
}

#: The scheduler a bare ``Simulator()`` gets.
DEFAULT_SCHEDULER = CalendarScheduler.name

_default = [DEFAULT_SCHEDULER]


def default_scheduler() -> str:
    """Name of the scheduler new simulators use by default."""
    return _default[0]


def set_default_scheduler(name: str) -> None:
    """Set the process-wide default scheduler (CLI entry points)."""
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r} "
                         f"(known: {', '.join(sorted(SCHEDULERS))})")
    _default[0] = name


@contextmanager
def scheduler_override(name: str):
    """Scoped default-scheduler swap (the A/B guard's tool)."""
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r} "
                         f"(known: {', '.join(sorted(SCHEDULERS))})")
    saved = _default[0]
    _default[0] = name
    try:
        yield
    finally:
        _default[0] = saved


def make_scheduler(name: Optional[str] = None) -> Scheduler:
    """Instantiate a scheduler by name (None = the current default)."""
    chosen = name if name is not None else _default[0]
    try:
        factory = SCHEDULERS[chosen]
    except KeyError:
        raise ValueError(f"unknown scheduler {chosen!r} "
                         f"(known: {', '.join(sorted(SCHEDULERS))})")
    return factory()
