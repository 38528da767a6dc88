"""Discrete-event simulation substrate.

Public surface: :class:`Simulator` (the event loop), process/event
primitives, shared resources, seeded random streams, named counters
and summary statistics.  Everything else in :mod:`repro` is built on
this package.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .monitor import Counter, StatSummary, percentile
from .random import RandomStream, SeedBank
from .resources import PriorityResource, Request, Resource, Store
from .sched import HeapScheduler, scheduler_override

__all__ = [
    "HeapScheduler",
    "scheduler_override",
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Counter",
    "StatSummary",
    "percentile",
    "RandomStream",
    "SeedBank",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
]
