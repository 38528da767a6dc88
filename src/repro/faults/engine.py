"""The chaos engine: drives a :class:`FaultPlan` against a built system.

One simulation process per scheduled fault: sleep until ``spec.at``,
emit a ``fault.<kind>`` span, run the kind's injector, count it.  The
engine holds no hidden state and consumes no randomness of its own —
with an empty plan it spawns nothing, so a run with a zero-fault
engine is event-for-event identical to one without the engine at all.
"""

from __future__ import annotations

from ..obs import end_span, start_span
from ..sim import Counter
from .injectors import INJECTORS
from .plan import FaultPlan

__all__ = ["FaultEngine"]


class FaultEngine:
    """Schedules and executes a fault plan on a built system."""

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.plan = plan
        self.stats = Counter()
        self._started = False

    def start(self) -> "FaultEngine":
        """Spawn one driver process per fault.  Call once, before run()."""
        if self._started:
            raise RuntimeError("FaultEngine.start() called twice")
        # Written once, before the clock starts; drivers only read it.
        self._started = True
        self.plan.validate()
        for index, spec in enumerate(self.plan.ordered()):
            self.system.sim.spawn(
                self._drive(spec),
                name=f"fault-{index}-{spec.kind}",
            )
        return self

    def _drive(self, spec):
        sim = self.system.sim
        if spec.at > 0:
            yield sim.timeout(spec.at)
        span = start_span(sim, f"fault.{spec.kind}", "fault",
                          target=spec.target, duration=spec.duration,
                          magnitude=spec.magnitude)
        # Counter increments commute across driver processes.
        self.stats.incr("injected")
        self.stats.incr(f"injected_{spec.kind}")
        try:
            yield from INJECTORS[spec.kind](self.system, spec)
        finally:
            end_span(sim, span)
