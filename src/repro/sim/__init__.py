"""Discrete-event simulation substrate.

Public surface: :class:`Simulator` (the event loop), process/event
primitives, shared resources, seeded random streams and measurement
collectors.  Everything else in :mod:`repro` is built on this package.
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
from .monitor import Counter, LatencyRecorder, StatSummary, TimeSeries, Trace
from .random import RandomStream, SeedBank
from .resources import Channel, PriorityResource, Request, Resource, Store
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
    "LatencyRecorder",
    "StatSummary",
    "TimeSeries",
    "Trace",
    "RandomStream",
    "SeedBank",
    "Channel",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
]
