"""Tests for the simulator's event queue: one binary heap and a lane,
drained by Simulator.run."""

# Seeded local Random instances only — never the module-level RNG.
import itertools
import random

import pytest

from repro.sim import Interrupt, Simulator, scheduler_override


# ----------------------------------------------- same-timestamp ordering
def test_same_timestamp_entries_pop_in_seq_order():
    sim = Simulator()
    sim.run(until=5.0)
    log = []
    # One timestamp, pushed out of seq order into the heap and the lane.
    sim._heappush((5.0, 1, 30, log.append, 30))
    sim._lane.append((5.0, 1, 10, log.append, 10))
    sim._heappush((5.0, 1, 20, log.append, 20))
    sim.run()
    assert log == [10, 20, 30]


def test_interrupt_outranks_an_earlier_lane_entry():
    sim = Simulator()
    sim.run(until=1.0)
    log = []
    sim._lane.append((1.0, 1, 2, log.append, 2))
    sim._heappush((1.0, 0, 3, log.append, 3))
    # The interrupt outranks the earlier-pushed priority-1 entry.
    sim.run()
    assert log == [3, 2]


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
    """run() looks at the queue head before it pops; a cancelled head
    is dropped there, uncounted, and the live entry behind it stays."""
    sim = Simulator()
    fired = []
    dead, alive = sim.timeout(1.0), sim.timeout(2.0)
    for timer in (dead, alive):
        timer.callbacks.append(lambda ev: fired.append(sim.now))
    dead.cancel()
    assert sim.queue_depth() == 1
    sim.run(until=1.5)
    assert fired == [] and sim.events_processed == 0
    assert sim._tombstones == 0 and sim.queue_depth() == 1
    sim.run()
    assert fired == [2.0] and sim.events_processed == 1


def test_empty_peek_and_pop():
    """On an empty queue run() finds no head and pops nothing."""
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0 and sim.events_processed == 0
    assert sim.queue_depth() == 0
    sim.run(until=1e6)
    assert sim.now == 1e6 and sim.events_processed == 0


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
    sim = Simulator()
    log = []
    dead = sim.timeout(0)
    event = sim.event()
    later = sim.timeout(3.0)
    for name, entry in (("dead", dead), ("event", event), ("later", later)):
        entry.callbacks.append(lambda ev, n=name: log.append(n))
    event.succeed()
    dead.cancel()
    assert sim._tombstones == 1 and sim.queue_depth() == 2
    sim.run()
    assert log == ["event", "later"]
    assert sim._tombstones == 0
    assert not sim._heap and not sim._lane


# --------------------------------------------------------------- oracle
def _newest_key(sim):
    """Key of the entry pushed last: seqs only grow, so it is the one
    with the highest seq."""
    return max(itertools.chain(sim._heap, sim._lane),
               key=lambda entry: entry[2])[:3]


def test_heap_matches_sorted_oracle_property():
    """Random pushes, cancels and interrupts between ``run(until=...)``
    steps: each step dispatches exactly what a sort of the live entries
    at or before ``until`` says, and ``queue_depth()`` is the live
    count.  Pushes cover the lane (succeed(), zero delays, scheduled
    calls, process bootstraps), the heap at ``now`` (delays that round
    to it) and later, and priority-0 interrupts; cancels hit lane and
    heap timeouts.  Callbacks only log, so a step pushes nothing."""
    for seed in range(8):
        rng = random.Random(seed)
        sim = Simulator()
        log = []
        live = {}  # label -> (time, priority, seq) of each live entry
        timers = {}  # label -> Timeout, for cancels
        started = []  # processes whose bootstrap has run
        never = sim.event()
        processes = {}
        labels = itertools.count()

        def waiter(name):
            # Logs its bootstrap and each interrupt; pushes nothing.
            log.append(name)
            started.append(processes[name])
            while True:
                try:
                    yield never
                except Interrupt as interrupt:
                    log.append(interrupt.cause)

        for _ in range(200):
            action = rng.random()
            label = next(labels)
            if action < 0.5:
                delay = rng.choice([0.0, 1e-18, rng.uniform(0.0, 0.2),
                                    rng.uniform(0.0, 50.0)])
                kind = rng.choice(["timeout", "call_after", "call",
                                   "succeed", "spawn"])
                if kind == "timeout":
                    timer = timers[label] = sim.timeout(delay)
                    timer.callbacks.append(lambda ev, n=label: log.append(n))
                elif kind == "call_after":
                    sim._call_after(delay, log.append, label)
                elif kind == "call":
                    sim._call(log.append, label)
                elif kind == "succeed":
                    event = sim.event()
                    event.callbacks.append(lambda ev, n=label: log.append(n))
                    event.succeed()
                else:
                    processes[label] = sim.spawn(waiter(label))
                live[label] = _newest_key(sim)
            elif action < 0.6 and started:
                started[rng.randrange(len(started))].interrupt(label)
                live[label] = _newest_key(sim)
                assert live[label][:2] == (sim.now, 0)
            elif action < 0.7:
                pending = [n for n in timers if n in live]
                if pending:
                    doomed = pending[rng.randrange(len(pending))]
                    timers[doomed].cancel()
                    del live[doomed]
            else:
                until = sim.now + rng.choice([0.0, rng.uniform(0.0, 0.2),
                                              rng.uniform(0.0, 20.0)])
                due = sorted((key, n) for n, key in live.items()
                             if key[0] <= until)
                before = sim.events_processed
                del log[:]
                sim.run(until=until)
                assert log == [n for _, n in due]
                assert sim.events_processed == before + len(due)
                assert sim.now == until
                for _, n in due:
                    del live[n]
            assert sim.queue_depth() == len(live)
        del log[:]
        sim.run()
        assert log == [n for _, n in sorted((key, n)
                                             for n, key in live.items())]
        assert sim.queue_depth() == 0 and sim._tombstones == 0
        assert not sim._heap and not sim._lane


# ----------------------------------------------------------------- shim
def test_scheduler_override_accepts_only_heap():
    with scheduler_override("heap"):
        pass
    with pytest.raises(ValueError):
        with scheduler_override("calendar"):
            pass
