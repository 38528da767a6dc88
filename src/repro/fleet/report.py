"""Fleet report section for bench and chaos reports."""

from __future__ import annotations

__all__ = ["fleet_report", "stranded_sessions"]


def stranded_sessions(system) -> int:
    """Sessions that exhausted every route (lost to member churn).

    The canary-regression acceptance gate: graceful ring retirement
    must strand nothing, so any station whose ResilientSession ever
    reported ``exhausted`` counts against it.
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
