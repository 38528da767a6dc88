"""Discrete-event simulation kernel.

Every subsystem in this reproduction (networks, radios, devices, servers)
runs on top of this kernel.  The design follows the classic
process-interaction style: a *process* is a Python generator that yields
:class:`Event` objects; the :class:`Simulator` advances virtual time and
resumes processes when the events they wait on fire.

The kernel is intentionally self-contained (no third-party dependency)
so the rest of the library has a single, fully-controlled notion of
time, scheduling and interruption.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(env):
...     yield env.timeout(5)
...     log.append(env.now)
>>> _ = sim.spawn(worker(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

# The one heapq that orders events; net/routing.py and apps/traffic.py
# use heapq only for Dijkstra's frontier.
import heapq
import itertools
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "Simulator",
    "AllOf",
    "AnyOf",
    "scheduler_override",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (e.g. running a finished simulator)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, may be *triggered* with a value (success)
    or *failed* with an exception, and once processed resumes every
    process that was waiting on it.

    ``__slots__`` matters here: events are among the most-allocated
    objects in any run (every timeout, triggered event and process is
    one), and dropping the per-instance ``__dict__`` is a measurable
    slice of total wall-clock.  Subclasses outside the kernel that need
    ad-hoc attributes (e.g. :class:`repro.sim.resources.Request` with
    its priority tag) simply omit ``__slots__`` and regain a dict.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_order",
                 "_cancelled")

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = Event.PENDING
        # Monotonic processing index stamped by Simulator.run(); None
        # until the event is processed (or when forged in tests).
        self._order: Optional[int] = None
        # Lazy-deletion tombstone: a cancelled event's queue entry is
        # dropped (not dispatched, not counted) when a pop reaches it.
        self._cancelled = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == Event.PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != Event.PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        # A same-instant push: the single hottest call site in any run.
        sim = self.sim
        sim._lane_append((sim.now, 1, next(sim._seq), None, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = Event.TRIGGERED
        sim = self.sim
        sim._lane_append((sim.now, 1, next(sim._seq), None, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._state} at t={self.sim.now}>"


# Module-level aliases so the hot paths compare and write states
# without re-resolving the class attribute each time.
_PENDING = Event.PENDING
_PROCESSED = Event.PROCESSED
_INF = float("inf")


class _Started:
    """What a process's bootstrap call hands :meth:`Process._resume`:
    a success carrying no value, so the generator starts with
    ``send(None)``."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay.

    The constructor is the kernel's hottest allocation site, so it
    writes every slot exactly once instead of chaining through
    ``Event.__init__`` (which would first write the pending defaults
    only for them to be overwritten) and inlines the schedule push.
    The observable behaviour — entry layout, sequence numbering,
    processing order — is identical to the generic path.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Written so that NaN fails too: it compares False both ways.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0: {delay}")
        self.sim = sim
        self.callbacks = []
        delay = float(delay)
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        self._order = None
        self._cancelled = False
        if delay == 0.0:
            sim._lane_append((sim.now, 1, next(sim._seq), None, self))
        else:
            sim._heappush((sim.now + delay, 1, next(sim._seq), None, self))

    def cancel(self) -> None:
        """Revoke the timeout before it fires.

        The queue entry is not hunted down; the event is tombstoned and
        :meth:`Simulator.run` drops the entry — without dispatching
        callbacks or counting it as processed — when it reaches it.
        Cancelling an already-processed (or already-cancelled) timeout
        is a no-op, so callers can cancel unconditionally.  The
        callbacks go now, as a firing would have dropped them: a race's
        ``AnyOf`` and its timer would hold each other until the cyclic GC.
        """
        if self._cancelled or self._state == Event.PROCESSED:
            return
        self._cancelled = True
        self.callbacks = []
        self.sim._tombstones += 1


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the event's value is sent back into the generator; when it
    fails, the exception is thrown into the generator.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        # Every slot written once, as in Timeout.__init__.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._state = _PENDING
        self._order = None
        self._cancelled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The event waited on; _STARTED until the bootstrap has run.
        self._target: Any = _STARTED
        # Bootstrap: a scheduled call that resumes the process at the
        # current time (Simulator._call, inlined).
        sim._lane_append((sim.now, 1, next(sim._seq), self._resume, _STARTED))

    @property
    def is_alive(self) -> bool:
        return self._state == Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process whose bootstrap has not run yet is interrupted once it
        has, so the generator meets the Interrupt at its first yield.
        Interrupts issued at one instant arrive one by one, in order; one
        that arrives after the process has finished is dropped.
        """
        if not self.is_alive:
            return
        sim = self.sim
        if self._target is _STARTED:
            sim._call(self.interrupt, cause)
            return
        err = Event(self.sim)
        err._ok = False
        err._value = Interrupt(cause)
        err._state = Event.TRIGGERED
        err.callbacks.append(self._interrupted)
        self._detach()
        sim._heappush((sim.now, 0, next(sim._seq), None, err))

    def _detach(self) -> None:
        """Stop waiting on the event waited on, if any."""
        target = self._target
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        if (
            isinstance(target, _Condition)
            and not target.triggered
            and not target.callbacks
        ):
            # Nobody else waits on the condition: detach its _on_child
            # callbacks so the children don't keep a dead waiter alive.
            target.cancel()
        self._target = None

    def _interrupted(self, err: Event) -> None:
        # Interrupts issued at one instant are delivered one by one.  A
        # later one can find the process resumed by an earlier one: it
        # then detaches the process from what it waits on now, and is
        # dropped if the process has finished.
        if self._state != _PENDING:
            return
        self._detach()
        self._resume(err)

    def _resume(self, event: Event) -> None:
        # ``event`` is the event waited on, or _STARTED for the first
        # resume; only its _ok and _value are read.
        profiler = self.sim._profiler
        if profiler is not None:
            profiler.on_resume(self)
        self._target = None
        try:
            if event._ok:
                result = self.generator.send(event._value)
            else:
                result = self.generator.throw(event._value)
        except StopIteration as stop:
            if self._state == _PENDING:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # kernel trampoline
            # The process trampoline is the one place every escaped
            # exception must be routed into Event.fail / strict re-raise.
            if self._state == _PENDING:
                if self.sim.strict:
                    raise
                self.fail(exc)
                return
            raise
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}, expected an Event"
            )
        if result.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        self._target = result
        if result._state == _PROCESSED:
            # Already-processed events resume the process at once, by a
            # scheduled call that hands it the event itself.
            self.sim._call(self._relay, result)
        else:
            result.callbacks.append(self._resume)

    def _relay(self, event: Event) -> None:
        # The scheduled call cannot be cancelled, so an interrupt that
        # landed first leaves it stale: it resumes the process only
        # while the process still waits on ``event``.
        if self._target is event:
            self._resume(event)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different sims")
        self._pending = sum(1 for ev in self.events if not ev.processed)
        if self._check_immediate():
            return
        for ev in self.events:
            if not ev.processed:
                ev.callbacks.append(self._on_child)

    def _check_immediate(self) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def cancel(self) -> None:
        """Detach this condition from its children (stale-callback cleanup
        when the waiting process is interrupted)."""
        for ev in self.events:
            if self._on_child in ev.callbacks:
                ev.callbacks.remove(self._on_child)


def _first_fired(events: list[Event]) -> Event:
    """The event that was processed earliest, by the kernel's processing
    index; falls back to list order for events forged without one."""
    ordered = [ev for ev in events if ev._order is not None]
    if ordered:
        return min(ordered, key=lambda ev: ev._order)
    return events[0]


class AllOf(_Condition):
    """Fires when every child event has fired; value maps event -> value."""

    __slots__ = ()

    def _check_immediate(self) -> bool:
        # A child that already failed-and-processed must fail the
        # composite immediately — succeeding with a partial value dict
        # (the pre-fix behaviour) silently swallowed the error.
        failed = [ev for ev in self.events if ev.processed and not ev._ok]
        if failed:
            self.fail(_first_fired(failed)._value)
            return True
        if self._pending == 0:
            self.succeed(self._collect())
            return True
        return False

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first child event fires; value maps event -> value."""

    __slots__ = ()

    def _check_immediate(self) -> bool:
        done = [ev for ev in self.events if ev.processed]
        if done:
            # "First" means first *fired*, not first in argument order:
            # the processing index makes the winner deterministic no
            # matter how the caller ordered the list.
            first = _first_fired(done)
            if first._ok:
                self.succeed(self._collect())
            else:
                self.fail(first._value)
            return True
        if not self.events:
            self.succeed({})
            return True
        return False

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)


class Simulator:
    """The event loop and its queue of ``(time, priority, seq, fn, arg)``
    entries.

    The total order is the tuple ``(time, priority, seq)``: virtual
    time, then priority (0 for interrupts, 1 for everything else), then
    a global sequence number that makes every key unique and same-time
    dispatch FIFO, so no comparison reaches ``fn``.

    An entry is one of two kinds.  An *event entry* has ``fn`` None and
    the :class:`Event` as ``arg``: dispatching it stamps its order,
    marks it processed and runs its callbacks.  A *scheduled call*
    (:meth:`_call`, :meth:`_call_after`) runs ``fn(arg)`` and nothing
    else: no event is allocated for a waiter that is known when the
    entry is pushed.  Both kinds take the next ``seq`` and count as one
    processed event, so the two are interchangeable to everything that
    reads the order or the count.

    The entries live in two places.  ``_lane`` is a FIFO of priority-1
    entries pushed for the current instant: each has ``time == now``
    and a seq above every entry already dispatched, so the lane is
    sorted as it stands.  ``_heap`` (a ``heapq``) holds every other
    entry: future times, interrupts, and delays that round to ``now``.
    :meth:`Timeout.cancel` tombstones an event instead of hunting its
    entry down and bumps ``_tombstones``; :meth:`run` drops a dead entry,
    uncounted, when it reaches it, so :meth:`queue_depth` counts only
    entries that will fire.

    ``strict`` controls error propagation from processes nobody waits
    on: when True (the default) an uncaught exception inside a process
    aborts :meth:`run`, which is almost always what a test wants.
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._heap: list = []
        self._lane: deque = deque()
        #: Cancelled entries not yet dropped (see Timeout.cancel).
        self._tombstones = 0
        # Bound caches for the two push paths: triggering is the
        # kernel's hottest path.  A same-instant priority-1 entry goes
        # straight onto the lane, any other one straight into the heap.
        # Both containers are emptied in place, never replaced.
        self._lane_append = self._lane.append
        self._heappush = partial(heapq.heappush, self._heap)
        self._seq = itertools.count()
        # Observability attachment points (duck-typed so the kernel never
        # imports repro.obs): a repro.obs Tracer and KernelProfiler hang
        # here when installed; both default to None and the disabled
        # path costs one attribute check.
        self.tracer: Any = None
        self._profiler: Any = None
        # Number of entries (events and scheduled calls) dispatched so
        # far; doubles as the processing index stamped onto each event
        # (a plain int so callers can read it without a profiler
        # installed).  Tombstoned (cancelled) entries are dropped
        # without touching this counter.
        self.events_processed: int = 0

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _call(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current instant, after every entry
        already pending for it: a process bootstrap or relay, or the
        wakeup of a link transmitter or node receiver.

        A scheduled call is the entry an event with ``fn`` as its only
        callback would take, without the event.  It cannot be
        cancelled.
        """
        self._lane_append((self.now, 1, next(self._seq), fn, arg))

    def _call_after(self, delay: float, fn: Callable[[Any], None],
                    arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` seconds from now: the entry a
        :class:`Timeout` with ``fn`` as its only callback would take,
        without the event (a zero delay goes on the lane, as there)."""
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0: {delay}")
        delay = float(delay)
        if delay == 0.0:
            self._lane_append((self.now, 1, next(self._seq), fn, arg))
        else:
            self._heappush((self.now + delay, 1, next(self._seq), fn, arg))

    def queue_depth(self) -> int:
        """Number of live (non-tombstoned) pending entries."""
        return len(self._heap) + len(self._lane) - self._tombstones

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        Dispatch takes one entry at a time, in ``(time, priority, seq)``
        order, straight from the lane and the heap: the next entry is
        the lane head unless the heap's head compares lower as a tuple.
        That is the order a heap alone would give: every lane entry has
        ``time == now``, priority 1 and a seq above every entry already
        popped, so only a heap entry at ``now`` with a lower seq, or an
        interrupt (priority 0), can come first, and the tuple compare
        finds either.  A cancelled event's entry is dropped where it is
        met, with the tombstone count rebalanced.

        Each live entry then checks the time, advances ``now``, takes
        its count and order stamp, calls the profiler hook and drains
        its callbacks or runs its call.  An exception that escapes a
        callback or a call leaves every other pending entry in place
        for the next :meth:`run`.
        """
        if until is None:
            stop = _INF
        elif not until >= self.now:  # NaN fails too
            raise SimulationError(
                f"until={until} is not at or after now={self.now}")
        else:
            stop = until
        heap = self._heap
        heappop = partial(heapq.heappop, heap)
        lane = self._lane
        lane_pop = lane.popleft
        while True:
            if lane:
                entry = lane[0]
                if heap and heap[0] < entry:
                    entry = heappop()
                else:
                    lane_pop()
            elif heap and heap[0][0] <= stop:
                entry = heappop()
            else:
                break
            time, _, _, fn, arg = entry
            if fn is None and arg._cancelled:
                # Rebalance the count Timeout.cancel() charged.
                self._tombstones -= 1
                continue
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            order = self.events_processed
            self.events_processed = order + 1
            if self._profiler is not None:
                self._profiler.on_event(
                    time, len(heap) + len(lane) - self._tombstones)
            if fn is not None:
                fn(arg)
                continue
            arg._order = order
            callbacks = arg.callbacks
            arg.callbacks = []
            arg._state = _PROCESSED
            for callback in callbacks:
                callback(arg)
        if until is not None:
            self.now = until


# Kept for bench/worker.py, whose ``heap`` ablation arm enters it.
@contextmanager
def scheduler_override(name: str):
    """No-op context: ``"heap"`` is the only scheduler."""
    if name != "heap":
        raise ValueError(f"unknown scheduler {name!r} (known: heap)")
    yield
