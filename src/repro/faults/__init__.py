"""Deterministic chaos engineering for the simulated commerce system.

Fault injection that is exactly as reproducible as the simulation it
attacks.  A :class:`FaultPlan` schedules faults from the taxonomy in
:data:`FAULT_KINDS` — link flaps, wireless loss windows, gateway and
web-server crashes, worker stalls, DB lock stalls, DNS blackouts,
battery drain, memory pressure — either declaratively or as a seeded
random process.  The :class:`FaultEngine` executes the plan on the sim
clock, emitting a ``fault.<kind>`` span per injection; with an empty
plan it spawns nothing and perturbs nothing.

:func:`run_chaos` ties it together: one named scenario against a full
mobile commerce system with the :mod:`repro.resilience` policies on or
off, reported as deterministic JSON.
"""

from .chaos import SCENARIOS, run_chaos, scenario_plan
from .engine import FaultEngine
from .injectors import INJECTORS, links_for, radio_links_for, stations_for
from .plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultEngine",
    "INJECTORS",
    "links_for",
    "radio_links_for",
    "stations_for",
    "SCENARIOS",
    "scenario_plan",
    "run_chaos",
]
