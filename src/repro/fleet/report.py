"""Fleet report section for bench and chaos reports."""

from __future__ import annotations

__all__ = ["fleet_report", "stranded_sessions"]


def stranded_sessions(system) -> int:
    """Stations whose ResilientSession ever exhausted every route.

    Any cause counts, not only member churn: a faulted radio can strand
    a station whose purchase later succeeds on retry.  The canary
    acceptance gate is that graceful ring retirement adds none, so the
    fleet tests and CI assert 0 on ``canary-regression``.
    """
    stranded = 0
    for handle in getattr(system, "stations", []):
        stats = getattr(handle.session, "stats", None)
        if stats is None:
            continue
        if stats.as_dict().get("exhausted", 0) > 0:
            stranded += 1
    return stranded


def fleet_report(system) -> dict:
    """JSON-friendly snapshot of the fleet's control plane."""
    fleet = getattr(system, "fleet", None)
    if fleet is None:
        return {}
    out = {
        "serving": len(fleet.ring),
        "members": [m.as_dict() for m in fleet.members.values()],
        "stats": fleet.stats.as_dict(),
        "stranded_sessions": stranded_sessions(system),
    }
    balancer = getattr(system, "balancer", None)
    if balancer is not None:
        out["balancer"] = balancer.stats.as_dict()
    monitor = getattr(system, "health_monitor", None)
    if monitor is not None:
        out["health"] = monitor.stats.as_dict()
    canary = getattr(system, "canary", None)
    if canary is not None:
        out["canary"] = canary.as_dict()
    return out
