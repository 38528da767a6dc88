"""Active health checks with half-open re-admission.

One monitor process sweeps every active member each
``PROBE_INTERVAL`` sim-seconds: a live gateway answers the probe in
``PROBE_COST``; a crashed one eats the full ``PROBE_TIMEOUT`` (a
connect that never answers).
``unhealthy_threshold`` consecutive failures eject the member from the
ring; ejected members keep being probed — that *is* the half-open
state, exactly the :class:`~repro.resilience.breaker.CircuitBreaker`
idiom — and ``recovery_threshold`` consecutive successes re-admit
them.  Because ring membership is the only thing ejection touches,
sticky sessions survive: a station failed over during an ejection
keeps its adopted member, and re-admission restores the original
mapping only for fresh placements.

The FSM step (:meth:`HealthMonitor.record_probe`) is pure so tests can
drive it without a simulator.
"""

from __future__ import annotations

from ..sim import Counter, Simulator
from .pool import FleetMember, GatewayFleet

__all__ = ["HealthMonitor"]

PROBE_INTERVAL = 2.0
PROBE_TIMEOUT = 1.5
PROBE_COST = 0.005
# Offset of the first sweep, apart from the canary's phase (0.333);
# the fleet scenarios' pinned bytes depend on it.
PROBE_PHASE = 0.111


class HealthMonitor:
    """Periodic prober + ejection/re-admission state machine."""

    def __init__(self, sim: Simulator, fleet: GatewayFleet,
                 unhealthy_threshold: int = 3,
                 recovery_threshold: int = 2):
        if unhealthy_threshold < 1 or recovery_threshold < 1:
            raise ValueError("health thresholds must be >= 1")
        self.sim = sim
        self.fleet = fleet
        self.unhealthy_threshold = unhealthy_threshold
        self.recovery_threshold = recovery_threshold
        self.stats = Counter()
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        # Only the single monitor process (spawned below) and the
        # build-time caller touch this.
        self._started = True
        self.sim.spawn(self._probe_loop(), name="fleet-health")

    def _probe_loop(self):
        yield self.sim.timeout(PROBE_PHASE)
        while True:
            yield self.sim.timeout(PROBE_INTERVAL)
            # Insertion-ordered dict sweep: deterministic, and members
            # added mid-run (canary replacements) join the next sweep.
            for name in list(self.fleet.members):
                member = self.fleet.members[name]
                if member.state != "active":
                    continue
                yield from self._probe(member)

    def _probe(self, member: FleetMember):
        # Single writer: only the one fleet-health process increments
        # these counters and ejects or re-admits ring members.
        self.stats.incr("probes")
        if member.gateway.is_down:
            # Dead listener: the probe burns its full connect timeout.
            yield self.sim.timeout(PROBE_TIMEOUT)
            self.record_probe(member, False)
        else:
            yield self.sim.timeout(PROBE_COST)
            self.record_probe(member, True)

    # -- pure FSM ----------------------------------------------------------
    def record_probe(self, member: FleetMember, ok: bool) -> None:
        if ok:
            member.probe_failures = 0
            if member.health == "ejected":
                member.probe_successes += 1
                if member.probe_successes >= self.recovery_threshold:
                    self._readmit(member)
            return
        self.stats.incr("probe_failures")
        member.probe_successes = 0
        member.probe_failures += 1
        if member.health == "healthy" and \
                member.probe_failures >= self.unhealthy_threshold:
            self._eject(member)

    def _eject(self, member: FleetMember) -> None:
        member.health = "ejected"
        member.probe_failures = 0
        self.fleet.ring.remove(member.name)
        self.stats.incr("ejections")

    def _readmit(self, member: FleetMember) -> None:
        member.health = "healthy"
        member.probe_successes = 0
        if member.state == "active":
            self.fleet.ring.add(member.name)
        self.stats.incr("readmissions")
