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
time; :meth:`HeapScheduler.pop_one` hands them back in the same order
for ``step()``.
"""

from __future__ import annotations

# The one heapq that orders events; net/routing.py and apps/traffic.py
# use heapq only for Dijkstra's frontier.
import heapq
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Optional

__all__ = ["HeapScheduler", "scheduler_override"]

_INF = float("inf")


def _dead(entry: tuple) -> bool:
    """Whether ``entry`` is a cancelled event's (a tombstone)."""
    return entry[3] is None and entry[4]._cancelled


class HeapScheduler:
    """Binary heap of ``(time, priority, seq, fn, arg)`` entries, plus a
    lane: a FIFO of priority-1 entries pushed for the current instant.

    Every lane entry has the current time, priority 1 and a seq above
    any entry already popped (callers push at ``now`` with increasing
    seqs), so the lane is sorted as it stands.  The heap holds every
    other entry: future times, interrupts (priority 0), and delays
    that round to ``now``.  ``(time, priority, seq)`` is unique, so no
    comparison reaches ``fn``.  The scheduler never inspects an entry
    beyond an event's ``_cancelled`` flag; a scheduled call (``fn``
    not None) cannot be cancelled.  Two parts of the contract matter
    to the kernel:

    * **Tombstones.**  :meth:`repro.sim.kernel.Timeout.cancel` marks the
      event and bumps ``tombstones`` instead of hunting the entry down.
      Dead entries, in the heap or the lane, are dropped — uncounted,
      without running callbacks — the moment any pop or peek reaches
      them, so :meth:`live_count` and :meth:`peek_time` describe only
      entries that will fire.
    * **One next-entry rule.**  The next entry is the lane head unless
      ``_heap[0]`` compares lower.  ``Simulator.run`` applies it to
      ``_heap`` and ``_lane`` itself, popping through ``_heappop`` or
      the lane's ``popleft``; :meth:`pop_one` and :meth:`peek_time`
      apply it here.  ``_heappush`` and ``_heappop`` are ``heapq``
      calls bound to the heap, so neither adds a Python frame.  The
      lane is emptied in place, never replaced, so the kernel holds
      its bound ``append`` as the push-now fast path.
    """

    def __init__(self):
        self._heap: list = []
        self._lane: deque = deque()
        self._heappush = partial(heapq.heappush, self._heap)
        self._heappop = partial(heapq.heappop, self._heap)
        #: Cancelled-but-not-yet-dropped entries (see Timeout.cancel).
        self.tombstones = 0

    def _head(self) -> tuple:
        """The next live entry and the callable that removes it, or
        ``(None, None)``; drops the tombstones met on the way."""
        heap = self._heap
        lane = self._lane
        while lane or heap:
            if lane and not (heap and heap[0] < lane[0]):
                entry, take = lane[0], lane.popleft
            else:
                entry, take = heap[0], self._heappop
            if not _dead(entry):
                return entry, take
            take()
            self.tombstones -= 1
        return None, None

    def pop_one(self) -> Optional[tuple]:
        """The single earliest live entry, or None when empty."""
        entry, take = self._head()
        if entry is not None:
            take()
        return entry

    def peek_time(self) -> float:
        """Earliest live entry's time, or +inf; drops leading tombstones."""
        entry, _ = self._head()
        return _INF if entry is None else entry[0]

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
