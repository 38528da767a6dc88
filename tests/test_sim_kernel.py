"""Unit tests for the discrete-event simulation kernel."""

import pytest

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


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad(env):
        yield 42  # repro: noqa[yield-event] deliberately malformed process

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc(env):
        yield env.timeout(7)

    sim.spawn(proc(sim))
    assert sim.peek() == 0.0  # process bootstrap event
    sim.step()
    assert sim.peek() == 7.0


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


@pytest.mark.parametrize("scenario", [_interrupt_mid_batch,
                                      _cancel_mid_batch],
                         ids=["interrupt", "cancel"])
def test_mid_batch_escapes_match_single_stepping(scenario):
    """run() drains a same-time batch in one go; an interrupt raised or
    a timeout cancelled inside the batch must still act exactly as it
    does under step()."""
    logs = []
    for whole in (True, False):
        sim = Simulator()
        log = []
        expected = scenario(sim, log)
        if whole:
            sim.run()
        else:
            while sim.peek() != float("inf"):
                sim.step()
        assert log == expected
        assert sim.queue_depth() == 0
        logs.append((log, sim.events_processed))
    assert logs[0] == logs[1]
