"""BENCH_PERF assembly: the load run, the equivalence guard, the sweep.

``full_bench`` is what ``python -m repro bench`` executes: the load
scenario, the equivalence table (DESIGN §10: caches on
vs off over four scenarios, fleet-of-1 vs single gateway, fleet-of-3
run twice), and optionally the goodput-vs-offered-load sweep.  The
result serialises to ``BENCH_PERF.json``.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from ..core.shoppers import canonical_json
from .determinism import bench_bytes, chaos_bytes, equivalence_check
from .loadgen import run_bench, sweep_bench

__all__ = ["full_bench"]


def full_bench(users: int = 50, seed: int = 7,
               transactions_per_user: int = 4,
               horizon: float = 240.0,
               determinism_users: int = 20,
               sweep: Optional[Iterable[int]] = None,
               fleet: int = 0) -> dict:
    """Run the load benchmark and the equivalence guard.

    ``sweep`` is an optional list of user counts for the
    goodput-vs-offered-load curve.  ``fleet`` > 0 runs the main
    scenario (and the sweep) against an N-member gateway fleet; the
    guard's fleet rows run either way.  The guard's small rows run at
    ``min(users, determinism_users)``.
    """
    optimized = run_bench(users=users, seed=seed,
                          transactions_per_user=transactions_per_user,
                          horizon=horizon, fleet=fleet)
    optimized_bytes = canonical_json(optimized["deterministic"])

    small = min(users, determinism_users)
    single = partial(bench_bytes, small, seed)
    rows = [
        ("caches-bench-timed", lambda: optimized_bytes,
         partial(bench_bytes, users, seed, transactions_per_user, horizon,
                 fleet, caches=False)),
        ("caches-bench", single, partial(bench_bytes, small, seed,
                                         caches=False)),
        ("caches-chaos-gateway-outage",
         partial(chaos_bytes, "gateway-outage", seed),
         partial(chaos_bytes, "gateway-outage", seed, caches=False)),
        ("caches-chaos-dns-blackout",
         partial(chaos_bytes, "dns-blackout", seed),
         partial(chaos_bytes, "dns-blackout", seed, caches=False)),
        ("fleet-of-1-vs-single", partial(bench_bytes, small, seed,
                                         fleet=1), single),
        ("fleet-of-3-repeat",
         partial(bench_bytes, small, seed, fleet=3, run=1),
         partial(bench_bytes, small, seed, fleet=3, run=2)),
    ]
    report = {
        "scenario": {
            "users": users,
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
        },
        "optimized": optimized,
        "equivalence": equivalence_check(rows, users=small, seed=seed),
    }
    if sweep is not None:
        report["sweep"] = sweep_bench(sweep, seed=seed,
                                      transactions_per_user=(
                                          transactions_per_user),
                                      horizon=horizon, fleet=fleet)
    return report
