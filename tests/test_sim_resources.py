"""Unit tests for the Resource and Store primitives."""

import pytest

from repro.sim import (PriorityResource, Resource, SimulationError,
                       Simulator, Store)


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def user(env, tag):
        req = res.request()
        yield req
        granted.append((tag, env.now))
        yield env.timeout(10)
        res.release(req)

    for tag in "abc":
        sim.spawn(user(sim, tag))
    sim.run()
    by_tag = dict(granted)
    assert by_tag["a"] == 0.0
    assert by_tag["b"] == 0.0
    assert by_tag["c"] == 10.0  # waited for a release


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(hold)
        res.release(req)

    for tag in ["first", "second", "third"]:
        sim.spawn(user(sim, tag, hold=1))
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_counts_and_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req1 = res.request()
    req2 = res.request()
    assert res.available == 0
    assert res.queue_length == 1
    assert req1.triggered and not req2.triggered
    res.release(req1)
    assert req2.triggered


def test_request_cancel_leaves_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    waiting = res.request()
    waiting.cancel()
    assert res.queue_length == 0
    res.release(held)
    assert not waiting.triggered  # cancelled requests are never granted


def test_cancel_of_middle_waiter_keeps_fifo_for_the_rest():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    first, middle, last = res.request(), res.request(), res.request()
    middle.cancel()
    assert res.queue_length == 2
    res.release(held)
    assert first.triggered and not last.triggered
    res.release(first)
    assert last.triggered and not middle.triggered
    assert res.queue_length == 0


def _grant_order(res, requests):
    """Release the holder of the single slot until no one waits; return
    the tags in the order their requests were granted."""
    order = []
    while True:
        holder = next((tag for tag, req in requests.items()
                       if req.holds_slot), None)
        if holder is None:
            return order
        order.append(holder)
        res.release(requests.pop(holder))


def test_priority_resource_grants_by_priority_then_arrival():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    requests = {"holder": res.request()}
    for tag, priority in [("a5", 5), ("b1", 1), ("c5", 5), ("d1", 1)]:
        requests[tag] = res.request(priority=priority)
    res.release(requests.pop("holder"))
    assert requests["b1"].holds_slot
    # An equal-priority request arriving late queues behind d1, ahead
    # of every lower-priority (higher value) waiter.
    requests["late1"] = res.request(priority=1)
    assert _grant_order(res, requests) == ["b1", "d1", "late1", "a5", "c5"]


def test_release_of_ungranted_request_is_refused():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    a, b, c = res.request(), res.request(), res.request()
    with pytest.raises(SimulationError):
        res.release(c)
    # Nothing moved: a still holds the slot, b and c still wait.
    assert a.triggered and not b.triggered and not c.triggered
    assert res.in_use == 1 and res.queue_length == 2
    res.release(a)
    assert b.triggered and not c.triggered and res.in_use == 1


def test_double_release_is_refused():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a, b = res.request(), res.request()
    res.release(a)
    with pytest.raises(SimulationError):
        res.release(a)
    assert res.in_use == 1
    res.release(b)
    assert res.in_use == 0


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(3)
        store.try_put("packet")

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [(3.0, "packet")]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    order = []

    def consumer(env):
        item = yield store.get()
        order.append(item)

    sim.spawn(consumer(sim))
    store.try_put("x")
    sim.run()
    assert order == ["x"]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.try_put(i)
    got = []

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.spawn(consumer(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]
