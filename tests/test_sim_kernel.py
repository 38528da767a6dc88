"""Unit tests for the discrete-event simulation kernel."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(env):
        yield env.timeout(5)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [5.0, 7.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_negative_call_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim._call_after(-1, print)
    assert sim.queue_depth() == 0


def test_nan_timeout_rejected():
    """A NaN delay compares False with everything, so its entry would
    break the heap order: a process waiting on a 5 s timeout must
    still wake at 5 after a NaN timeout was asked for."""
    sim = Simulator()
    woke = []

    def sleeper(env):
        yield env.timeout(5)
        woke.append(env.now)

    sim.spawn(sleeper(sim))
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    sim.run()
    assert woke == [5.0] and sim.queue_depth() == 0


def test_nan_call_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim._call_after(float("nan"), print)
    assert sim.queue_depth() == 0


def test_nan_until_rejected():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0 and sim.queue_depth() == 1
    sim.run()
    assert sim.now == 1.0


def test_scheduled_calls_take_their_place_in_the_event_order():
    """A scheduled call takes the next seq and counts as one processed
    event, so calls and events interleave in push order at each
    instant, and a zero-delay call goes on the lane as a zero timeout
    does."""
    sim = Simulator()
    log = []
    sim.timeout(1.0).callbacks.append(lambda ev: log.append(("t", ev._order)))
    sim._call_after(1.0, log.append, "c1")
    sim._call(log.append, "c0")
    event = sim.event()
    event.callbacks.append(lambda ev: log.append(("e", ev._order)))
    event.succeed()
    sim._call_after(0, log.append, "z")
    sim.run()
    assert log == ["c0", ("e", 1), "z", ("t", 3), "c1"]
    assert sim.events_processed == 5
    assert sim.now == 1.0


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        sim.spawn(waiter(sim, delay, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []

    def waiter(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ["first", "second", "third"]:
        sim.spawn(waiter(sim, tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append(value)

    def trigger(env):
        yield env.timeout(4)
        ev.succeed(42)

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert got == [42]
    assert ev.processed


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_process_return_value_propagates():
    sim = Simulator()
    got = []

    def child(env):
        yield env.timeout(2)
        return "result"

    def parent(env):
        value = yield env.spawn(child(env))
        got.append(value)

    sim.spawn(parent(sim))
    sim.run()
    assert got == ["result"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator(strict=False)
    caught = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.spawn(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["child failed"]


def test_strict_mode_raises_uncaught_process_error():
    sim = Simulator(strict=True)

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    sim.spawn(bad(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    events = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            events.append("finished")
        except Interrupt as intr:
            events.append(("interrupted", env.now, intr.cause))

    def interrupter(env, proc):
        yield env.timeout(3)
        proc.interrupt("wake up")

    proc = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, proc))
    sim.run()
    assert events == [("interrupted", 3.0, "wake up")]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick(env):
        yield env.timeout(1)

    proc = sim.spawn(quick(sim))
    sim.run()
    assert not proc.is_alive
    proc.interrupt()  # must not raise


def test_interrupt_before_bootstrap_reaches_the_first_yield():
    """A process interrupted at the instant it was spawned starts
    first and meets the Interrupt at its first yield, in its own
    handler."""
    sim = Simulator(strict=False)
    log = []

    def p(env):
        log.append(("started", env.now))
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    proc = sim.spawn(p(sim))
    proc.interrupt("x")
    sim.run()
    assert proc.ok is True
    assert log == [("started", 0.0), ("interrupted", 0.0, "x")]


def test_interrupt_cancels_the_relay_of_a_processed_event():
    """A process that yields an already-processed event and is
    interrupted at the same instant is resumed once, by the Interrupt:
    the pending relay of the stale value does not resume it again."""
    sim = Simulator()
    log = []

    def waiter(env, done):
        yield env.timeout(1)
        try:
            yield done
            log.append("relayed")
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(("slept", env.now))

    def interrupter(env, proc):
        yield env.timeout(1)
        proc.interrupt()

    done = sim.event()
    done.succeed("stale")
    proc = sim.spawn(waiter(sim, done))
    sim.spawn(interrupter(sim, proc))
    sim.run()
    assert log == [("interrupted", 1.0), ("slept", 6.0)]


def test_interrupts_at_one_instant_are_delivered_one_by_one():
    """The second of two same-instant interrupts detaches the process
    from what it yielded after catching the first, and is dropped once
    the process has finished."""
    def catcher(env, catches, nap):
        for _ in range(catches):
            try:
                yield env.timeout(10)
            except Interrupt as interrupt:
                log.append((interrupt.cause, env.now))
        if nap:
            yield env.timeout(nap)
            log.append(("slept", env.now))

    def interrupter(env, proc):
        yield env.timeout(1)
        proc.interrupt("a")
        proc.interrupt("b")

    for catches, nap, expected in (
            (2, 5, [("a", 1.0), ("b", 1.0), ("slept", 6.0)]),
            (1, 0, [("a", 1.0)])):
        sim = Simulator()
        log = []
        proc = sim.spawn(catcher(sim, catches, nap))
        sim.spawn(interrupter(sim, proc))
        sim.run()
        assert proc.ok is True
        assert log == expected


def test_run_until_stops_clock():
    sim = Simulator()

    def ticker(env):
        while True:
            yield env.timeout(10)

    sim.spawn(ticker(sim))
    sim.run(until=35)
    assert sim.now == 35


def test_run_until_past_rejected():
    sim = Simulator()

    def proc(env):
        yield env.timeout(10)

    sim.spawn(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    got = []

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        result = yield env.all_of([t1, t2])
        got.append((env.now, sorted(result.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(5.0, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def proc(env):
        t1 = env.timeout(2, value="fast")
        t2 = env.timeout(50, value="slow")
        result = yield env.any_of([t1, t2])
        got.append((env.now, list(result.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(2.0, ["fast"])]


def test_any_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def proc(env):
        result = yield env.any_of([])
        got.append(result)

    sim.spawn(proc(sim))
    sim.run()
    assert got == [{}]


# Deliberately malformed processes: each yields something that is not
# an Event, including an uncalled env.timeout.
def _yields_42(env):
    yield 42


def _yields_bare(env):
    yield


def _yields_none(env):
    yield None


def _yields_str(env):
    yield "x"


def _yields_uncalled_timeout(env):
    yield env.timeout


@pytest.mark.parametrize("bad", [
    _yields_42, _yields_bare, _yields_none, _yields_str,
    _yields_uncalled_timeout,
], ids=["42", "bare", "None", "str", "uncalled-timeout"])
def test_yield_non_event_rejected(bad):
    sim = Simulator()
    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_wait_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    got = []

    def late_waiter(env):
        yield env.timeout(10)
        value = yield ev  # ev processed long ago
        got.append((env.now, value))

    def trigger(env):
        yield env.timeout(1)
        ev.succeed("early")

    sim.spawn(late_waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert got == [(10.0, "early")]


def test_all_of_fails_when_any_child_fails():
    sim = Simulator()
    ev_ok = sim.event()
    ev_bad = sim.event()
    caught = []

    def waiter(env):
        try:
            yield env.all_of([ev_ok, ev_bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1)
        ev_bad.fail(RuntimeError("child died"))
        ev_ok.succeed("fine")

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert caught == ["child died"]


def test_any_of_fails_if_first_event_fails():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(env):
        try:
            yield env.any_of([ev, env.timeout(100)])
        except ValueError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1)
        ev.fail(ValueError("early failure"))

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run(until=200)
    assert caught == ["early failure"]


def test_interrupt_cause_none_by_default():
    sim = Simulator()
    seen = []

    def sleeper(env):
        try:
            yield env.timeout(50)
        except Interrupt as intr:
            seen.append(intr.cause)

    proc = sim.spawn(sleeper(sim))

    def poke(env):
        yield env.timeout(1)
        proc.interrupt()

    sim.spawn(poke(sim))
    sim.run()
    assert seen == [None]


def test_all_of_fails_immediately_on_already_failed_child():
    sim = Simulator()
    bad = sim.event()
    bad.fail(RuntimeError("already dead"))
    ok = sim.event()
    ok.succeed("fine")
    sim.run()  # both children are fully processed before the AllOf exists
    caught = []

    def waiter(env):
        try:
            yield env.all_of([ok, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim))
    sim.run()
    # Pre-fix, _check_immediate succeeded with a partial {ok: "fine"}
    # dict, silently swallowing the failure.
    assert caught == ["already dead"]


def test_any_of_failure_follows_firing_order_not_list_order():
    sim = Simulator()
    bad = sim.event()
    good = sim.event()

    def trigger(env):
        bad.fail(ValueError("fired first"))
        yield env.timeout(1)
        good.succeed("fired second")

    sim.spawn(trigger(sim))
    sim.run()
    caught = []

    def waiter(env):
        try:
            # The failed event fired first but is listed *second*.
            yield env.any_of([good, bad])
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim))
    sim.run()
    assert caught == ["fired first"]


def test_any_of_success_follows_firing_order_not_list_order():
    sim = Simulator()
    bad = sim.event()
    good = sim.event()

    def trigger(env):
        good.succeed("fired first")
        yield env.timeout(1)
        bad.fail(ValueError("fired second"))

    sim.spawn(trigger(sim))
    sim.run()
    got = []

    def waiter(env):
        # The success fired first but the failure is listed first; the
        # deterministic first-fired rule means the AnyOf succeeds.
        result = yield env.any_of([bad, good])
        got.append(result[good])

    sim.spawn(waiter(sim))
    sim.run()
    assert got == ["fired first"]


@pytest.mark.parametrize("combine", ["all_of", "any_of"])
def test_interrupt_detaches_condition_child_callbacks(combine):
    sim = Simulator()
    a, b = sim.event(), sim.event()
    seen = []

    def waiter(env):
        try:
            yield getattr(env, combine)([a, b])
        except Interrupt:
            seen.append("interrupted")

    proc = sim.spawn(waiter(sim))

    def poke(env):
        yield env.timeout(1)
        proc.interrupt()

    sim.spawn(poke(sim))
    sim.run()
    assert seen == ["interrupted"]
    # Pre-fix, the condition's _on_child callbacks lingered on the
    # children after the waiter was interrupted.
    assert a.callbacks == []
    assert b.callbacks == []


# ------------------------------------------------ mid-batch escapes
def _interrupt_mid_batch(sim, log):
    """Three timeouts share t=1; the first one's callback interrupts a
    sleeping process."""
    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append(("interrupted", env.now))

    proc = sim.spawn(sleeper(sim))
    for name in "abc":
        timer = sim.timeout(1.0)
        timer.callbacks.append(lambda ev, n=name: log.append((n, sim.now)))
        if name == "a":
            timer.callbacks.append(lambda ev: proc.interrupt())
    return [("a", 1.0), ("interrupted", 1.0), ("b", 1.0), ("c", 1.0)]


def _cancel_mid_batch(sim, log):
    """Three timeouts share t=1; the first one's callback cancels the
    third."""
    timers = [sim.timeout(1.0) for _ in range(3)]
    for name, timer in zip("abc", timers):
        timer.callbacks.append(lambda ev, n=name: log.append((n, sim.now)))
    timers[0].callbacks.append(lambda ev: timers[2].cancel())
    return [("a", 1.0), ("b", 1.0)]


def _lane_beside_heap_mid_batch(sim, log):
    """Two timeouts share t=1; their callbacks trigger same-instant
    events beside a timeout whose delay rounds to zero, so the next
    batch mixes both kinds of entry at one time, and one of the
    same-instant entries is cancelled before it runs."""
    def note(name):
        return lambda ev: log.append((name, sim.now))

    first, second = sim.timeout(1.0), sim.timeout(1.0)

    def fan_out(ev):
        woken = sim.event()
        woken.callbacks.append(note("woken"))
        woken.succeed()
        # 1.0 + 1e-18 == 1.0: a priority-1 entry at the current time.
        tiny = sim.timeout(1e-18)
        tiny.callbacks.append(note("tiny"))
        doomed = sim.timeout(0)
        doomed.callbacks.append(note("doomed"))
        tiny.callbacks.append(lambda ev: doomed.cancel())

    first.callbacks.extend([note("a"), fan_out])
    second.callbacks.extend([
        note("b"),
        lambda ev: sim.timeout(0).callbacks.append(note("zero"))])
    return [("a", 1.0), ("b", 1.0), ("woken", 1.0), ("tiny", 1.0),
            ("zero", 1.0)]


# The two ways to drive a simulator to the end; both must dispatch the
# same entries in the same order.  A sliced drive is a run(until=t) to
# halfway before, then to the time of, each next pending entry; each
# slice must leave nothing pending at or before its t.
DRIVERS = ("run", "sliced-run")


def _drive(sim, driver):
    if driver == "run":
        sim.run()
        return
    while sim._lane or sim._heap:
        at = sim._lane[0][0] if sim._lane else sim._heap[0][0]
        sim.run(until=(sim.now + at) / 2)
        sim.run(until=at)
        assert not sim._lane and not (sim._heap and sim._heap[0][0] <= at)


@pytest.mark.parametrize("scenario", [_interrupt_mid_batch,
                                      _cancel_mid_batch,
                                      _lane_beside_heap_mid_batch],
                         ids=["interrupt", "cancel", "lane-beside-heap"])
def test_mid_batch_escapes_match_single_stepping(scenario):
    """An interrupt raised or a timeout cancelled while other entries
    of its time are pending acts the same under one run() and under
    run(until=t) slices.  (The name predates run() becoming the only
    dispatch loop.)"""
    logs = []
    for driver in DRIVERS:
        sim = Simulator()
        log = []
        expected = scenario(sim, log)
        _drive(sim, driver)
        assert log == expected
        assert sim.queue_depth() == 0
        logs.append((log, sim.events_processed))
    assert logs[0] == logs[1]


@pytest.mark.parametrize("kind", ["heap", "lane", "call-heap", "call-lane"])
@pytest.mark.parametrize("driver", DRIVERS)
def test_escaped_exception_keeps_the_rest_of_its_batch(driver, kind):
    """Three entries share t=1 (three timeouts in the heap, three
    succeed() entries in the lane, or three scheduled calls in either)
    and the first callback or call raises.  The other two must stay
    pending and run on the next drive."""
    sim = Simulator()
    log = []

    def boom(_):
        raise RuntimeError("boom")

    def note(name):
        return lambda _: log.append((name, sim.now))

    if kind.endswith("lane"):
        sim.run(until=1.0)
    if kind.startswith("call"):
        for fn in (boom, note("b"), note("c")):
            if kind == "call-heap":
                sim._call_after(1.0, fn)
            else:
                sim._call(fn)
    else:
        if kind == "heap":
            events = [sim.timeout(1.0) for _ in range(3)]
        else:
            events = [sim.event() for _ in range(3)]
        events[0].callbacks.append(boom)
        for name, event in zip("abc", events):
            event.callbacks.append(note(name))
        if kind == "lane":
            for event in events:
                event.succeed()
    with pytest.raises(RuntimeError, match="boom"):
        _drive(sim, driver)
    assert sim.events_processed == 1
    assert sim.queue_depth() == 2
    _drive(sim, driver)
    assert log == [("b", 1.0), ("c", 1.0)]
    assert sim.events_processed == 3
    assert sim.queue_depth() == 0


# ------------------------------------- one order under every driver
class _DepthLog:
    """Duck-typed kernel profiler that records what the kernel passes,
    with the index of the entry being dispatched (a scheduled call
    carries no order stamp of its own)."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def on_event(self, now, queue_depth):
        self.seen.append((self.sim.events_processed - 1, now, queue_depth))

    def on_resume(self, process):
        self.seen.append(("resume", process.name))


_DELAYS = st.one_of(st.just(0.0), st.just(1e-18),
                    st.floats(min_value=1e-3, max_value=5.0))

_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("call_after"), _DELAYS),
    st.tuples(st.just("succeed"), st.just(0)),
    st.tuples(st.just("call"), st.just(0)),
    st.tuples(st.just("sleep"), st.floats(min_value=0.0, max_value=5.0)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
)


def _replay(tape, driver):
    """Build and drive a schedule from ``tape``: the n-th callback to
    fire performs ``tape[n]``'s ops (``tape[0]`` runs before the
    drive).  The tape is consumed in dispatch order, so two drivers
    that dispatch alike build the same schedule."""
    sim = Simulator()
    profile = sim._profiler = _DepthLog(sim)
    log = []
    timers, spawned, sleeping = [], {}, []
    names = itertools.count()
    fired = [0]

    def on_fire(name):
        def callback(event):
            # A scheduled call passes None and has no order stamp: it
            # is the entry just counted.
            order = (sim.events_processed - 1 if event is None
                     else event._order)
            log.append((name, sim.now, order))
            fired[0] += 1
            if fired[0] < len(tape):
                perform(tape[fired[0]])
        return callback

    def sleeper(env, name, delay):
        # Interruptible only once started, and only once.
        sleeping.append(spawned[name])
        try:
            yield env.timeout(delay)
            log.append((name, "woke", env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))

    def perform(ops):
        for op, arg in ops:
            name = f"e{next(names)}"
            if op == "timeout":
                timer = sim.timeout(arg)
                timer.callbacks.append(on_fire(name))
                timers.append(timer)
            elif op == "call_after":
                sim._call_after(arg, on_fire(name))
            elif op == "succeed":
                event = sim.event()
                event.callbacks.append(on_fire(name))
                event.succeed()
            elif op == "call":
                sim._call(on_fire(name))
            elif op == "sleep":
                spawned[name] = sim.spawn(sleeper(sim, name, arg), name=name)
            elif op == "interrupt" and sleeping:
                sleeping.pop(arg % len(sleeping)).interrupt(name)
            elif op == "cancel" and timers:
                timers[-1 - arg % len(timers)].cancel()

    perform(tape[0])
    _drive(sim, driver)
    return log, sim.events_processed, profile.seen, sim.queue_depth()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tape=st.lists(st.lists(_OPS, max_size=4), min_size=1, max_size=40))
def test_run_and_sliced_run_dispatch_alike(tape):
    """Random schedules mixing zero, rounding-to-now and random delays
    of timeouts and scheduled calls, succeed() and call chains fired
    from callbacks, interrupts and cancellations of lane and heap
    entries: the dispatch log, the order stamps, the event count and
    the queue depth the profiler sees are the same under one run() and
    under run(until=t) slices at the schedule's times."""
    runs = [_replay(tape, driver) for driver in DRIVERS]
    assert runs[0] == runs[1]
    assert runs[0][3] == 0
