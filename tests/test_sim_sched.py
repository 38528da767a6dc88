"""Tests for repro.sim.sched: the kernel's binary-heap event queue."""

# Seeded local Random instances only — never the module-level RNG.
import random

import pytest

from repro.sim import HeapScheduler, Simulator, scheduler_override


class FakeEvent:
    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False


def drain(sched):
    """Every live entry, in dispatch order."""
    order = []
    while True:
        entry = sched.pop_one()
        if entry is None:
            return order
        order.append(entry)


# ----------------------------------------------- same-timestamp ordering
def test_same_timestamp_entries_pop_in_seq_order():
    sched = HeapScheduler()
    # One timestamp, pushed out of seq order into the heap and the lane.
    sched._heappush((5.0, 1, 30, None, FakeEvent()))
    sched._lane.append((5.0, 1, 10, None, FakeEvent()))
    sched._heappush((5.0, 1, 20, None, FakeEvent()))
    assert [entry[2] for entry in drain(sched)] == [10, 20, 30]


def test_interrupt_outranks_an_earlier_lane_entry():
    sched = HeapScheduler()
    sched._lane.append((1.0, 1, 2, None, FakeEvent()))
    sched._heappush((1.0, 0, 3, None, FakeEvent()))
    assert sched.peek_time() == 1.0
    # The interrupt outranks the earlier-pushed priority-1 entry.
    assert [entry[2] for entry in drain(sched)] == [3, 2]


# -------------------------------------------------- tombstones / cancels
def test_mass_timeout_cancellation():
    """Cancel hundreds of pending timeouts; none may fire and the live
    count must reflect only survivors."""
    sim = Simulator()
    fired = []
    timers = []
    for index in range(400):
        timer = sim.timeout(1.0 + index * 0.01)
        timer.callbacks.append(lambda ev, i=index: fired.append(i))
        timers.append(timer)
    keep = [timer for index, timer in enumerate(timers) if index % 50 == 0]
    for index, timer in enumerate(timers):
        if index % 50:
            timer.cancel()
    assert sim.queue_depth() == len(keep)
    sim.run()
    assert fired == [0, 50, 100, 150, 200, 250, 300, 350]
    assert sim.queue_depth() == 0


def test_peek_skips_cancelled_head():
    sched = HeapScheduler()
    dead = FakeEvent()
    sched._heappush((1.0, 1, 1, None, dead))
    sched._heappush((2.0, 1, 2, None, FakeEvent()))
    dead._cancelled = True
    sched.tombstones += 1
    assert sched.peek_time() == 2.0
    assert sched.live_count() == 1


def test_empty_peek_and_pop():
    sched = HeapScheduler()
    assert sched.peek_time() == float("inf")
    assert sched.pop_one() is None
    assert len(sched) == 0 and sched.live_count() == 0
    sched._heappush((1e6, 1, 1, None, FakeEvent()))
    assert sched.peek_time() == 1e6


def test_until_excludes_later_entries():
    """run(until) dispatches an entry at exactly ``until``, none after."""
    sim = Simulator()
    fired = []
    for delay in (5.0, 5.5):
        sim.timeout(delay).callbacks.append(lambda ev: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == [] and sim.now == 4.0
    sim.run(until=5.0)
    assert fired == [5.0] and sim.queue_depth() == 1


def test_cancelled_lane_head_is_dropped_and_rebalanced():
    sched = HeapScheduler()
    dead = FakeEvent()
    sched._lane.append((1.0, 1, 1, None, dead))
    sched._lane.append((1.0, 1, 2, None, FakeEvent()))
    sched._heappush((3.0, 1, 0, None, FakeEvent()))
    dead._cancelled = True
    sched.tombstones += 1
    assert sched.peek_time() == 1.0
    assert sched.tombstones == 0 and len(sched) == 2
    assert [entry[2] for entry in drain(sched)] == [2, 0]


# --------------------------------------------------------------- oracle
def test_heap_matches_sorted_oracle_property():
    """Random push/pop/peek/cancel interleavings dispatch exactly what a
    sort of the live entries says.  Same-instant entries go on the lane
    or, as a same-time heap push at priority 1 or 0, straight beside
    it; cancellations hit either kind."""
    def key(entry):
        return entry[:3]

    for seed in range(8):
        rng = random.Random(seed)
        sched = HeapScheduler()
        live = []  # the oracle: every pushed, not-yet-popped live entry
        seq = 0
        now = 0.0
        for _ in range(160):
            action = rng.random()
            if action < 0.5:
                seq += 1
                delay = rng.choice([0.0, 0.0, rng.uniform(0.0, 0.2),
                                    rng.uniform(0.0, 50.0)])
                priority = 0 if rng.random() < 0.08 else 1
                entry = (now + delay, priority, seq, None, FakeEvent())
                if delay == 0.0 and priority == 1 and rng.random() < 0.8:
                    sched._lane.append(entry)
                else:
                    sched._heappush(entry)
                live.append(entry)
            elif action < 0.6 and live:
                entry = live.pop(rng.randrange(len(live)))
                entry[4]._cancelled = True
                sched.tombstones += 1
            elif action < 0.7:
                live.sort(key=key)
                assert sched.peek_time() == (live[0][0] if live
                                             else float("inf"))
            else:
                entry = sched.pop_one()
                live.sort(key=key)
                if live:
                    assert key(entry) == key(live.pop(0))
                    now = entry[0]
                else:
                    assert entry is None
            assert sched.live_count() == len(live)
        live.sort(key=key)
        assert [key(e) for e in drain(sched)] == [key(e) for e in live]
        assert sched.live_count() == 0
        assert len(sched) == 0 and sched.tombstones == 0


# ----------------------------------------------------------------- shim
def test_scheduler_override_accepts_only_heap():
    with scheduler_override("heap"):
        pass
    with pytest.raises(ValueError):
        with scheduler_override("calendar"):
            pass
