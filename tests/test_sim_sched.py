"""Tests for repro.sim.sched: the kernel's binary-heap event queue."""

# Seeded local Random instances only — never the module-level RNG.
import random  # repro: noqa[module-random] seeded property-test streams

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
        batch = sched.pop_batch(None)
        if not batch:
            return order
        order.extend(batch)


# ----------------------------------------------- same-timestamp ordering
def test_same_timestamp_batch_is_seq_ordered():
    sched = HeapScheduler()
    # One timestamp, pushed out of seq order through both entry points.
    sched.push(5.0, 1, 30, FakeEvent())
    sched.push_now(5.0, 10, FakeEvent())
    sched.push(5.0, 1, 20, FakeEvent())
    batch = sched.pop_batch(None)
    assert [entry[2] for entry in batch] == [10, 20, 30]


def test_urgent_push_flags_until_next_pop():
    sched = HeapScheduler()
    sched.push_now(1.0, 2, FakeEvent())
    assert not sched.urgent_pending
    sched.push(1.0, 0, 3, FakeEvent())
    assert sched.urgent_pending
    batch = sched.pop_batch(None)
    assert not sched.urgent_pending
    # The interrupt outranks the earlier-pushed priority-1 entry.
    assert [entry[2] for entry in batch] == [3, 2]


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
    sched.push(1.0, 1, 1, dead)
    sched.push(2.0, 1, 2, FakeEvent())
    dead._cancelled = True
    sched.tombstones += 1
    assert sched.peek_time() == 2.0
    assert sched.live_count() == 1


def test_empty_peek_and_pop():
    sched = HeapScheduler()
    assert sched.peek_time() == float("inf")
    assert sched.pop_batch(None) == []
    assert sched.pop_one() is None
    assert len(sched) == 0 and sched.live_count() == 0
    sched.push(1e6, 1, 1, FakeEvent())
    assert sched.peek_time() == 1e6


def test_until_excludes_later_entries():
    sched = HeapScheduler()
    sched.push(5.0, 1, 1, FakeEvent())
    assert sched.pop_batch(4.0) == []
    assert sched.pop_batch(5.0)[0][2] == 1


# --------------------------------------------------------------- oracle
def test_heap_matches_sorted_oracle_property():
    """Random push/pop/peek/cancel interleavings dispatch exactly what a
    sort of the live entries says, batch by batch and one by one.
    Same-instant entries go through ``push_now`` or, as a same-time
    ``push`` at priority 1 or 0, straight beside them; cancellations hit
    either kind."""
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
                entry = (now + delay, priority, seq, FakeEvent())
                if delay == 0.0 and priority == 1 and rng.random() < 0.8:
                    sched.push_now(now, seq, entry[3])
                else:
                    sched.push(*entry)
                live.append(entry)
            elif action < 0.6 and live:
                entry = live.pop(rng.randrange(len(live)))
                entry[3]._cancelled = True
                sched.tombstones += 1
            elif action < 0.68:
                live.sort(key=key)
                assert sched.peek_time() == (live[0][0] if live
                                             else float("inf"))
            elif action < 0.8:
                entry = sched.pop_one()
                live.sort(key=key)
                if live:
                    assert key(entry) == key(live.pop(0))
                    now = entry[0]
                else:
                    assert entry is None
            else:
                batch = sched.pop_batch(None)
                live.sort(key=key)
                expected = [entry for entry in live
                            if entry[0] == live[0][0]] if live else []
                assert [key(e) for e in batch] == [key(e) for e in expected]
                del live[:len(expected)]
                if batch:
                    now = batch[0][0]
            assert sched.live_count() == len(live)
        live.sort(key=key)
        assert [key(e) for e in drain(sched)] == [key(e) for e in live]
        assert sched.live_count() == 0


# ----------------------------------------------------------------- shim
def test_scheduler_override_accepts_only_heap():
    with scheduler_override("heap"):
        pass
    with pytest.raises(ValueError):
        with scheduler_override("calendar"):
            pass
