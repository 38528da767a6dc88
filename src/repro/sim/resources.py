"""Shared-resource primitives built on the simulation kernel.

Two primitives cover everything the stack needs:

* :class:`Resource` — a counted semaphore with FIFO queuing (radio
  channels, server worker pools, circuit-switched trunks).
* :class:`Store` — an unbounded FIFO of Python objects (socket
  streams, accept backlogs, datagram inboxes).
"""

from __future__ import annotations

from typing import Any

from .kernel import Event, Simulator, SimulationError

__all__ = ["Request", "Resource", "PriorityResource", "Store"]


class Request(Event):
    """Pending acquisition of one resource slot.

    Use as ``yield res.request()`` and later ``res.release(req)``.
    Cancelling before the grant (e.g. after a timeout race) is done via
    :meth:`cancel`.
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        # True from the grant until the release: only a holder may
        # release, and only once.
        self.holds_slot = False

    def cancel(self) -> None:
        """Withdraw the request (no-op if already granted)."""
        if not self.triggered:
            try:
                self.resource._waiting.remove(self)
            except ValueError:
                pass


class Resource:
    """A counted resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        # A list (one per resource, usually empty, far smaller than a
        # deque): it holds only waiters beyond capacity, so pop(0) is
        # cheap.  cancel() relies on remove()'s ValueError.
        self._waiting: list[Request] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def _grant(self, req: Request) -> None:
        req.holds_slot = True
        req.succeed(self)

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("release() of a foreign request")
        if not request.holds_slot:
            raise SimulationError(
                "release() of a request that holds no slot "
                "(never granted, or already released)")
        request.holds_slot = False
        if self._waiting:
            self._grant(self._waiting.pop(0))
        else:
            self.in_use -= 1


class PriorityResource(Resource):
    """A Resource whose wait queue grants lower ``priority`` values first.

    Ties break FIFO.  Used by 3G cells for QoS: conversational traffic
    (priority 0) gets airtime ahead of background transfers.
    """

    def request(self, priority: int = 10) -> Request:
        req = Request(self)
        req.priority = priority
        if self.in_use < self.capacity:
            self.in_use += 1
            self._grant(req)
        else:
            self._waiting.append(req)
            # The queue is already in (priority, arrival) order and
            # list.sort() is stable, so the newcomer lands after every
            # earlier waiter of its priority.
            self._waiting.sort(key=lambda r: r.priority)
        return req


class Store:
    """Unbounded FIFO object store; ``get`` blocks until an item is
    available."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def try_put(self, item: Any) -> None:
        """Insert ``item`` (never blocks: the store is unbounded)."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Remove and return the oldest item (event value)."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, getter: Event) -> None:
        """Withdraw a pending :meth:`get` (no-op once it has its item),
        so the next item goes to the next getter."""
        if not getter.triggered:
            self._getters.remove(getter)
