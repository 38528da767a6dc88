"""Output checks: every run set must pass these or the benchmark fails.

Each check takes worker results (the dicts ``bench.worker`` prints) and
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

__all__ = ["check_digests", "check_accounting", "check_latency",
           "check_layers", "check_host_shares", "check_all"]


def check_digests(results) -> list:
    """Every run of one workload and seed has the same deterministic
    section, whether traced, profiled or plain."""
    by_seed: dict = {}
    for r in results:
        if "det_digest" in r:
            by_seed.setdefault(r["seed"], []).append(r)
    failures = []
    for seed, runs in sorted(by_seed.items()):
        if len({r["det_digest"] for r in runs}) > 1:
            modes = sorted({(r["mode"], r["det_digest"][:12]) for r in runs})
            failures.append(f"det_digest differs across runs at seed "
                            f"{seed}: {modes}")
    return failures


def check_accounting(result) -> list:
    """offered >= started >= completed >= succeeded, and
    admitted + rejected = started."""
    a = result["accounting"]
    failures = []
    if not a["offered"] >= a["started"] >= a["completed"] >= a["succeeded"]:
        failures.append("accounting: expected offered >= started >= "
                        f"completed >= succeeded, got {a}")
    if a["admitted"] + a["rejected"] != a["started"]:
        failures.append("accounting: admitted + rejected != started "
                        f"({a['admitted']} + {a['rejected']} != "
                        f"{a['started']})")
    if a["succeeded"] < 1:
        failures.append("accounting: no transaction succeeded")
    return failures


def check_latency(result) -> list:
    """The report's percentiles match the ledger's latencies."""
    lat = result["latency"]
    return [f"latency {q}: report says {lat[q]}, ledger gives "
            f"{lat[q + '_recomputed']}"
            for q in ("p50", "p95") if lat[q] != lat[f"{q}_recomputed"]]


def check_layers(traced, rel_tol: float = 1e-6) -> list:
    """Virtual seconds per layer sum to the completed transactions'
    summed latency (every instant is charged to exactly one layer)."""
    total = sum(traced["layers"].values())
    expected = traced["closed_latency_s"]
    if not math.isclose(total, expected, rel_tol=rel_tol, abs_tol=1e-9):
        return [f"layers sum to {total:.6f} span-s, completed "
                f"transactions' latency sums to {expected:.6f} s"]
    return []


def check_host_shares(profiled, tolerance: float = 0.01) -> list:
    """The folded cProfile buckets account for the whole profiled
    interval: their shares of its wall time sum to 1 +- ``tolerance``."""
    share = sum(profiled["profile"].values()) / profiled["profile_wall_s"]
    if abs(share - 1.0) > tolerance:
        return [f"host shares sum to {share:.4f}, not 1 +- {tolerance}"]
    return []


def check_all(results) -> list:
    """All checks over the runs of one workload."""
    failures = check_digests(results)
    for result in results:
        if "accounting" in result:
            failures += check_accounting(result)
            failures += check_latency(result)
        if result["mode"] == "traced":
            failures += check_layers(result)
        if result["mode"] == "profiled":
            failures += check_host_shares(result)
    return failures
