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

import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from .sched import HeapScheduler

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "Simulator",
    "AllOf",
    "AnyOf",
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

    ``__slots__`` matters here: events are the single most-allocated
    object in any run (every timeout, packet delivery and process wakeup
    is one), and dropping the per-instance ``__dict__`` is a measurable
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
        # Monotonic processing index stamped by Simulator.step(); None
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
        # Inlined Simulator._schedule(self) for the delay-0 priority-1
        # case — this is the single hottest call site in any run.
        sim = self.sim
        sim._push_now(sim.now, next(sim._seq), self)
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
        self.sim._schedule(self)
        return self

    def _mark_processed(self) -> None:
        self._state = Event.PROCESSED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._state} at t={self.sim.now}>"


# Module-level alias so the run() hot loop marks events processed
# without re-resolving the class attribute per event.
_PROCESSED = Event.PROCESSED


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
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
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
            sim._push_now(sim.now, next(sim._seq), self)
        else:
            sim._push(sim.now + delay, 1, next(sim._seq), self)

    def cancel(self) -> None:
        """Revoke the timeout before it fires.

        The queue entry is not hunted down; the event is tombstoned and
        the scheduler drops the entry — without dispatching callbacks or
        counting it as processed — whenever a pop or peek reaches it.
        Cancelling an already-processed (or already-cancelled) timeout
        is a no-op, so callers can cancel unconditionally.
        """
        if self._cancelled or self._state == Event.PROCESSED:
            return
        self._cancelled = True
        self.sim._sched.tombstones += 1


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the event's value is sent back into the generator; when it
    fails, the exception is thrown into the generator.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: resume the process at the current time.
        init = Event(sim)
        init._ok = True
        init._state = Event.TRIGGERED
        init.callbacks.append(self._resume)
        sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        return self._state == Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        err = Event(self.sim)
        err._ok = False
        err._value = Interrupt(cause)
        err._state = Event.TRIGGERED
        err.callbacks.append(self._resume)
        # Detach from whatever the process was waiting on.
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
        self.sim._schedule(err, priority=0)

    def _resume(self, event: Event) -> None:
        profiler = self.sim._profiler
        if profiler is not None:
            profiler.on_resume(self)
        self._target = None
        self.sim._active_process = self
        try:
            if event._ok:
                result = self.generator.send(event._value)
            else:
                result = self.generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # repro: noqa[broad-except] kernel trampoline
            # The process trampoline is the one place every escaped
            # exception must be routed into Event.fail / strict re-raise.
            self.sim._active_process = None
            if not self.triggered:
                if self.sim.strict:
                    raise
                self.fail(exc)
                return
            raise
        self.sim._active_process = None
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}, expected an Event"
            )
        if result.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        self._target = result
        if result._state == Event.PROCESSED:
            # Already-processed events resume the process immediately.
            relay = Event(self.sim)
            relay._ok = result._ok
            relay._value = result._value
            relay._state = Event.TRIGGERED
            relay.callbacks.append(self._resume)
            self.sim._schedule(relay)
        else:
            result.callbacks.append(self._resume)


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
        if self.triggered:
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
        if self.triggered:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)


class Simulator:
    """The event loop over a :class:`~repro.sim.sched.HeapScheduler` of
    (time, priority, seq, event) entries.

    ``strict`` controls error propagation from processes nobody waits
    on: when True (the default) an uncaught exception inside a process
    aborts :meth:`run`, which is almost always what a test wants.
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._sched = HeapScheduler()
        # Bound-method caches for the two push entry points: triggering
        # is the kernel's hottest path.
        self._push_now = self._sched.push_now
        self._push = self._sched.push
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        # Observability attachment points (duck-typed so the kernel never
        # imports repro.obs): a repro.obs Tracer and KernelProfiler hang
        # here when installed; both default to None and the disabled
        # path costs one attribute check.
        self.tracer: Any = None
        self._profiler: Any = None
        # Same duck-typed pattern for the commutativity sanitizer
        # (repro.analysis.races.BatchSanitizer): when installed it sees
        # every popped batch (and may reorder it for flip replays) plus
        # every dispatched entry.  None by default; the disabled path
        # costs one hoisted attribute check per run().
        self._sanitizer: Any = None
        # Number of events processed so far; doubles as the processing
        # index stamped onto each event (a plain int so callers can read
        # it without a profiler installed).  Tombstoned (cancelled)
        # entries are dropped without touching this counter.
        self.events_processed: int = 0

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # Alias familiar to SimPy users.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay == 0.0 and priority == 1:
            # The dominant push: an event triggered at the current
            # instant.
            self._push_now(self.now, next(self._seq), event)
        else:
            self._push(self.now + delay, priority,
                       next(self._seq), event)

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or +inf if none.

        Tombstoned (cancelled) entries are dropped on the way, so the
        answer is the time :meth:`step` would actually advance to.
        """
        return self._sched.peek_time()

    def queue_depth(self) -> int:
        """Number of live (non-tombstoned) pending events."""
        return self._sched.live_count()

    def step(self) -> None:
        """Process exactly one event."""
        entry = self._sched.pop_one()
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        time, _, _, event = entry
        if time < self.now:
            raise SimulationError("time went backwards")
        self.now = time
        if self._sanitizer is not None:
            # A single step is a batch of one; keeps the sanitizer's
            # batch ordinals aligned with run()-driven dispatch.
            self._sanitizer.on_batch(time, [entry])
            self._sanitizer.on_event(entry)
        event._order = self.events_processed
        self.events_processed += 1
        if self._profiler is not None:
            self._profiler.on_event(self.now, event,
                                    self._sched.live_count())
        callbacks, event.callbacks = event.callbacks, []
        event._mark_processed()
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or ``until`` is reached.

        Dispatch is batched: the scheduler hands over every event
        sharing the earliest timestamp in one ``pop_batch`` call and
        the loop drains the batch without re-entering the queue
        structure.  Two rare cases re-involve the scheduler mid-batch:

        * an *interrupt* (priority 0) scheduled by a batch callback
          sorts before the remaining priority-1 batch entries, so the
          loop watches the scheduler's ``urgent_pending`` flag and
          requeues the unconsumed tail when it trips;
        * an entry *cancelled* by an earlier batch callback is skipped
          where it lies, with the tombstone count rebalanced.

        The observable sequence of state changes per event (time check,
        ``now`` advance, order stamp, profiler hook, callback drain) is
        exactly :meth:`step`'s, so single-stepping and running are
        indistinguishable to everything above the kernel.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        sched = self._sched
        pop_batch = sched.pop_batch
        sanitizer = self._sanitizer
        while True:
            batch = pop_batch(until)
            if not batch:
                break
            time = batch[0][0]
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            if sanitizer is not None:
                # The sanitizer closes the previous batch's read/write
                # sets and may return a reordered batch (flip replay).
                batch = sanitizer.on_batch(time, batch)
            index = 0
            size = len(batch)
            while index < size:
                entry = batch[index]
                if sched.urgent_pending and entry[1] >= 1:
                    # An interrupt arrived mid-batch; it outranks every
                    # unconsumed priority-1 entry at this timestamp.
                    sched.requeue(batch[index:])
                    break
                index += 1
                event = entry[3]
                if event._cancelled:
                    # Cancelled after extraction; rebalance the count
                    # Timeout.cancel() charged to the scheduler.
                    sched.tombstones -= 1
                    continue
                if sanitizer is not None:
                    sanitizer.on_event(entry)
                event._order = self.events_processed
                self.events_processed += 1
                if self._profiler is not None:
                    self._profiler.on_event(
                        time, event, sched.live_count() + (size - index))
                callbacks = event.callbacks
                event.callbacks = []
                event._state = _PROCESSED
                for callback in callbacks:
                    callback(event)
        if until is not None:
            self.now = until
