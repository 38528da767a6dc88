"""The simulation kernel's event queue: one binary heap and a lane.

The kernel's total order over scheduled events is the tuple
``(time, priority, seq)``: virtual time first, then priority (0 for
interrupts, 1 for everything else), then a global monotonic sequence
number that makes every key unique and same-time dispatch FIFO.
:class:`HeapScheduler` stores ``(time, priority, seq, fn, arg)``
entries in a flat ``heapq`` and keeps same-instant pushes in a FIFO
beside it.  An event's entry has ``fn`` None and the event as ``arg``;
a scheduled call's entry holds the function and its one argument.
:meth:`repro.sim.Simulator.run` reads both directly, one entry at a
time; :meth:`HeapScheduler.pop_one` and :meth:`HeapScheduler.pop_batch`
hand them back in the same order for ``step()`` and for the race
sanitizer's batched loop.
"""

from __future__ import annotations

# The one sanctioned heapq import site for event scheduling — see the
# direct-heapq lint rule in repro.analysis.rules.perf.
import heapq
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Any, Optional

__all__ = ["HeapScheduler", "scheduler_override"]

_INF = float("inf")


def _dead(entry: tuple) -> bool:
    """Whether ``entry`` is a cancelled event's (a tombstone)."""
    return entry[3] is None and entry[4]._cancelled


class HeapScheduler:
    """Binary heap of ``(time, priority, seq, fn, arg)`` entries, plus a
    lane: a FIFO that :meth:`push_now` appends to.

    Every lane entry has the current time, priority 1 and a seq above
    any entry already popped (callers push at ``now`` with increasing
    seqs), so the lane is sorted as it stands.  The heap stays the only
    structure for future times.  ``(time, priority, seq)`` is unique,
    so no comparison reaches ``fn``.  The scheduler never inspects an
    entry beyond an event's ``_cancelled`` flag; a scheduled call
    (``fn`` not None) cannot be cancelled.  Three parts of the contract
    matter to the kernel:

    * **Tombstones.**  :meth:`repro.sim.kernel.Timeout.cancel` marks the
      event and bumps ``tombstones`` instead of hunting the entry down.
      Dead entries, in the heap or the lane, are dropped — uncounted,
      without running callbacks — the moment any pop or peek reaches
      them, so :meth:`live_count` and :meth:`peek_time` describe only
      entries that will fire.
    * **Direct access.**  ``Simulator.run`` reads ``_heap`` and
      ``_lane`` itself: the next entry is the lane head unless
      ``_heap[0]`` compares lower, and it pops through ``_heappop`` or
      the lane's ``popleft``.  ``_heappush`` and ``_heappop`` are
      ``heapq`` calls bound to the heap, so neither adds a Python frame.
      The lane is emptied in place, never replaced, so the kernel holds
      its bound ``append`` as the push-now fast path.
    * **The batch**, for the race sanitizer's loop only.
      :meth:`pop_batch` returns every live entry sharing the earliest
      time, in order.  When no heap entry shares the lane's time, the
      lane is the batch; otherwise (a same-time :meth:`push` or
      :meth:`requeue`) it is merged into the heap first.  Either way
      the batch, and where it ends, is the one a heap alone would give.
      ``urgent_pending`` is set whenever a priority != 1 entry is
      pushed, so that loop notices an interrupt that arrives mid-batch
      and hands the unconsumed tail back through :meth:`requeue`; the
      next :meth:`pop_batch` or :meth:`pop_one` clears it.
    """

    def __init__(self):
        self._heap: list = []
        self._lane: deque = deque()
        self._heappush = partial(heapq.heappush, self._heap)
        self._heappop = partial(heapq.heappop, self._heap)
        #: Cancelled-but-not-yet-dropped entries (see Timeout.cancel).
        self.tombstones = 0
        self.urgent_pending = False

    def push(self, time: float, priority: int, seq: int, event: Any) -> None:
        """Insert a general event entry (any priority, any future time)."""
        self._heappush((time, priority, seq, None, event))
        if priority != 1:
            self.urgent_pending = True

    def push_now(self, time: float, seq: int, event: Any) -> None:
        """Fast path: priority-1 event entry at the current instant."""
        self._lane.append((time, 1, seq, None, event))

    def _merge_lane(self) -> None:
        """Move the lane into the heap (rare: see the batch contract)."""
        for entry in self._lane:
            self._heappush(entry)
        self._lane.clear()

    def pop_batch(self, until: Optional[float]) -> list:
        """All live entries sharing the earliest time, in order.

        Returns ``[]`` when nothing is pending or the earliest live
        entry lies beyond ``until``.
        """
        self.urgent_pending = False
        heap = self._heap
        lane = self._lane
        if lane:
            time = lane[0][0]
            if heap and heap[0][0] <= time:
                self._merge_lane()
            elif until is not None and time > until:
                return []
            else:
                batch = list(lane)
                lane.clear()
                for entry in batch:
                    if _dead(entry):
                        live = [entry for entry in batch
                                if not _dead(entry)]
                        self.tombstones -= len(batch) - len(live)
                        return live or self.pop_batch(until)
                return batch
        heappop = self._heappop
        while heap:
            if _dead(heap[0]):
                heappop()
                self.tombstones -= 1
                continue
            time = heap[0][0]
            if until is not None and time > until:
                return []
            batch = [heappop()]
            while heap and heap[0][0] == time:
                entry = heappop()
                if _dead(entry):
                    self.tombstones -= 1
                else:
                    batch.append(entry)
            return batch
        return []

    def pop_one(self) -> Optional[tuple]:
        """The single earliest live entry, or None when empty."""
        self.urgent_pending = False
        if self._lane:
            self._merge_lane()
        heap = self._heap
        while heap:
            entry = self._heappop()
            if _dead(entry):
                self.tombstones -= 1
                continue
            return entry
        return None

    def requeue(self, entries: list) -> None:
        """Put back the unconsumed tail of a batch (urgent preemption,
        or an exception escaping the batch)."""
        for entry in entries:
            self._heappush(entry)

    def peek_time(self) -> float:
        """Earliest live entry's time, or +inf; drops leading tombstones."""
        if self._lane:
            self._merge_lane()
        heap = self._heap
        while heap:
            if _dead(heap[0]):
                self._heappop()
                self.tombstones -= 1
                continue
            return heap[0][0]
        return _INF

    def __len__(self) -> int:
        """Raw entry count, tombstones included."""
        return len(self._heap) + len(self._lane)

    def live_count(self) -> int:
        """Entries that will actually dispatch (raw minus tombstones)."""
        return len(self._heap) + len(self._lane) - self.tombstones


# Kept for bench/worker.py, whose ``heap`` ablation arm enters it.
@contextmanager
def scheduler_override(name: str):
    """No-op context: ``"heap"`` is the only scheduler."""
    if name != "heap":
        raise ValueError(f"unknown scheduler {name!r} (known: heap)")
    yield
