"""BENCH_PERF assembly: optimized run, A/B guards, sweep.

``full_bench`` is what ``python -m repro bench`` executes: the load
scenario with the caches on, the same scenario with them forced off, the
caches A/B determinism verdict, the fleet A/B verdict (fleet-of-1 vs
single gateway, fleet-of-3 repeatability), and optionally the
goodput-vs-offered-load sweep.  The result serialises to
``BENCH_PERF.json``.
"""

from __future__ import annotations

import gc
import json
from typing import Iterable, Optional

from ..opt import optimizations_disabled
from .determinism import determinism_check, fleet_check
from .loadgen import run_bench, sweep_bench

__all__ = ["full_bench", "report_to_json"]


def full_bench(users: int = 50, seed: int = 7,
               transactions_per_user: int = 4,
               horizon: float = 240.0,
               determinism_users: int = 20,
               sweep: Optional[Iterable[int]] = None,
               fleet: int = 0) -> dict:
    """Run the benchmark both ways and assemble the BENCH_PERF report.

    ``sweep`` is an optional list of user counts for the
    goodput-vs-offered-load curve.  ``fleet`` > 0 runs the timed
    scenario (and the sweep) against an N-member gateway fleet.  The
    fleet A/B guard (fleet-of-1 vs single gateway byte-identical;
    fleet-of-3 repeat byte-identical) runs either way.
    """
    # Warm-up pass so neither timed run pays first-touch costs
    # (imports, code objects, allocator growth), then collect between
    # runs so the second is not timed under the first one's garbage.
    run_bench(users=min(users, 20), seed=seed,
              transactions_per_user=transactions_per_user,
              horizon=min(horizon, 60.0), fleet=fleet)
    gc.collect()
    optimized = run_bench(users=users, seed=seed,
                          transactions_per_user=transactions_per_user,
                          horizon=horizon, fleet=fleet)
    gc.collect()
    with optimizations_disabled():
        caches_off = run_bench(users=users, seed=seed,
                               transactions_per_user=transactions_per_user,
                               horizon=horizon, fleet=fleet)
    gc.collect()
    same_results = (
        json.dumps(optimized["deterministic"], sort_keys=True)
        == json.dumps(caches_off["deterministic"], sort_keys=True))
    guard_users = min(users, determinism_users)
    determinism = determinism_check(users=guard_users, seed=seed)
    fleet_guard = fleet_check(users=guard_users, seed=seed)

    off_wall = caches_off["measured"]["wall_seconds"]
    opt_wall = optimized["measured"]["wall_seconds"]
    report = {
        "scenario": {
            "users": users,
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
        },
        "optimized": optimized,
        "caches_off": caches_off,
        "speedup_caches_on_vs_off": (round(off_wall / opt_wall, 3)
                                     if opt_wall > 0 else None),
        "determinism": determinism,
        "fleet_determinism": fleet_guard,
        "identical_results_caches_on_vs_off": same_results,
    }
    if sweep is not None:
        report["sweep"] = sweep_bench(sweep, seed=seed,
                                      transactions_per_user=(
                                          transactions_per_user),
                                      horizon=horizon, fleet=fleet)
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
