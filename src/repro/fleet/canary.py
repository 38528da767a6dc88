"""Canary rollout with automatic SLO rollback.

At ``deploy_at`` the controller replaces ``ceil(fraction * N)`` serving
members with a "v2" gateway variant (same middleware class, optionally
handicapped — the chaos ``canary-regression`` scenario plants a
deliberate per-request service-time penalty).  Replacement is the
fleet's graceful retirement: the v1 member leaves the ring, its
still-running gateway drains in-flight work, and the ring remaps only
that member's keys to the v2 instance — zero sessions stranded.

From then on, every ``window`` sim-seconds the controller compares the
canary cohort against the v1 baseline over the balancer's sliding
observation window: p95 latency worse than ``p95_ratio`` times the
baseline, or a success rate more than ``success_delta`` below it, is a
violation.  ``violations`` consecutive bad windows roll the canary
back (v1 replacements at the same radio cells); ``healthy_windows``
consecutive good ones promote v2 fleet-wide.  Windows without
``min_samples`` observations on both sides are abstentions — they
reset nothing and decide nothing.

:meth:`CanaryController.evaluate` is pure so tests can pin the exact
threshold where rollback triggers.
"""

from __future__ import annotations

import math
from ..sim import Counter, Simulator, percentile
from .balancer import LoadBalancer
from .pool import GatewayFleet

__all__ = ["CanaryController"]


class CanaryController:
    """Deploy a v2 cohort, judge SLO windows, promote or roll back."""

    IDLE = "IDLE"
    CANARY = "CANARY"
    PROMOTED = "PROMOTED"
    ROLLED_BACK = "ROLLED_BACK"

    def __init__(self, sim: Simulator, fleet: GatewayFleet,
                 balancer: LoadBalancer, fraction: float = 0.25,
                 deploy_at: float = 0.0, handicap: float = 0.0,
                 window: float = 20.0, min_samples: int = 5,
                 p95_ratio: float = 1.5, success_delta: float = 0.1,
                 violations: int = 2, healthy_windows: int = 3,
                 phase: float = 0.333):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"canary fraction must be in (0, 1], got {fraction}")
        if violations < 1 or healthy_windows < 1:
            raise ValueError("canary window counts must be >= 1")
        self.sim = sim
        self.fleet = fleet
        self.balancer = balancer
        self.fraction = fraction
        self.deploy_at = deploy_at
        self.handicap = handicap
        self.window = window
        self.min_samples = min_samples
        self.p95_ratio = p95_ratio
        self.success_delta = success_delta
        self.violations = violations
        self.healthy_windows = healthy_windows
        self.phase = phase
        self.state = CanaryController.IDLE
        self.stats = Counter()
        self.canary_members: list[str] = []
        self.history: list[dict] = []
        self._bad_windows = 0
        self._good_windows = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        # Controller state is written only by the single fleet-canary
        # process.
        self._started = True
        self.sim.spawn(self._run(), name="fleet-canary")

    def _run(self):
        yield self.sim.timeout(self.deploy_at + self.phase)
        self.deploy()
        while self.state == CanaryController.CANARY:
            yield self.sim.timeout(self.window)
            self._judge_window()

    # -- rollout mechanics -------------------------------------------------
    def deploy(self) -> None:
        baseline = [m for m in self.fleet.serving_members()
                    if m.version != "v2"]
        if not baseline:
            return
        count = max(1, math.ceil(self.fraction * len(baseline)))
        # Highest-index members: deterministic, and the most recently
        # added members carry the fewest long-lived sticky sessions.
        targets = sorted(baseline, key=lambda m: m.index)[-count:]
        for old in targets:
            self.fleet.retire_member(old.name, reason="canary-replace")
            fresh = self.fleet.add_member(version="v2",
                                          handicap=self.handicap,
                                          cell_index=old.cell_index)
            self.canary_members.append(fresh.name)
        self.state = CanaryController.CANARY
        self.stats.incr("deploys")

    def rollback(self) -> None:
        for name in self.canary_members:
            member = self.fleet.members[name]
            if member.state != "active":
                continue
            self.fleet.retire_member(name, reason="canary-rollback")
            self.fleet.add_member(version="v1", handicap=0.0,
                                  cell_index=member.cell_index)
        self.state = CanaryController.ROLLED_BACK
        self.stats.incr("rollbacks")

    def promote(self) -> None:
        for member in list(self.fleet.serving_members()):
            if member.version == "v2":
                continue
            self.fleet.retire_member(member.name,
                                     reason="canary-promote")
            self.fleet.add_member(version="v2", handicap=self.handicap,
                                  cell_index=member.cell_index)
        self.state = CanaryController.PROMOTED
        self.stats.incr("promotions")

    # -- judgement ---------------------------------------------------------
    def evaluate(self, canary: dict, baseline: dict) -> str:
        """Pure verdict: 'violation' | 'healthy' | 'insufficient'.

        ``canary`` and ``baseline`` carry ``count``, ``successes`` and
        ``latencies`` (successful-attempt latencies only).
        """
        if canary["count"] < self.min_samples or \
                baseline["count"] < self.min_samples:
            return "insufficient"
        canary_success = canary["successes"] / canary["count"]
        base_success = baseline["successes"] / baseline["count"]
        if canary_success < base_success - self.success_delta:
            return "violation"
        base_p95 = percentile(sorted(baseline["latencies"]), 0.95)
        canary_p95 = percentile(sorted(canary["latencies"]), 0.95)
        if base_p95 > 0 and canary_p95 > self.p95_ratio * base_p95:
            return "violation"
        return "healthy"

    def _judge_window(self) -> None:
        since = self.sim.now - self.window
        active_canaries = [
            name for name in self.canary_members
            if self.fleet.members[name].state == "active"
        ]
        baseline_names = [m.name for m in self.fleet.serving_members()
                          if m.version != "v2"]
        canary = self.balancer.window_stats(active_canaries, since)
        baseline = self.balancer.window_stats(baseline_names, since)
        verdict = self.evaluate(canary, baseline)
        self.history.append({
            "at": self.sim.now,
            "verdict": verdict,
            "canary_count": canary["count"],
            "canary_successes": canary["successes"],
            "canary_p95": percentile(sorted(canary["latencies"]), 0.95),
            "baseline_count": baseline["count"],
            "baseline_successes": baseline["successes"],
            "baseline_p95": percentile(sorted(baseline["latencies"]),
                                       0.95),
        })
        self.stats.incr(f"windows_{verdict}")
        if verdict == "violation":
            self._bad_windows += 1
            self._good_windows = 0
            if self._bad_windows >= self.violations:
                self.rollback()
        elif verdict == "healthy":
            self._good_windows += 1
            self._bad_windows = 0
            if self._good_windows >= self.healthy_windows:
                self.promote()

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "canary_members": list(self.canary_members),
            "windows": list(self.history),
            "stats": self.stats.as_dict(),
        }
