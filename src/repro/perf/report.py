"""BENCH_PERF assembly: the timed run, the equivalence guard, the sweep.

``full_bench`` is what ``python -m repro bench`` executes: a warm-up,
the timed load scenario, the equivalence table (DESIGN §10: caches on
vs off over four scenarios, fleet-of-1 vs single gateway, fleet-of-3
run twice), and optionally the goodput-vs-offered-load sweep.  The
result serialises to ``BENCH_PERF.json``.
"""

from __future__ import annotations

import gc
import json
from functools import partial
from typing import Iterable, Optional

from .determinism import bench_bytes, chaos_bytes, equivalence_check
from .loadgen import run_bench, sweep_bench

__all__ = ["full_bench", "report_to_json"]


def full_bench(users: int = 50, seed: int = 7,
               transactions_per_user: int = 4,
               horizon: float = 240.0,
               determinism_users: int = 20,
               sweep: Optional[Iterable[int]] = None,
               fleet: int = 0) -> dict:
    """Run the timed benchmark and the equivalence guard.

    ``sweep`` is an optional list of user counts for the
    goodput-vs-offered-load curve.  ``fleet`` > 0 runs the timed
    scenario (and the sweep) against an N-member gateway fleet; the
    guard's fleet rows run either way.  The guard's small rows run at
    ``min(users, determinism_users)``.
    """
    # Warm-up pass so the timed run does not pay first-touch costs
    # (imports, code objects, allocator growth), then collect so it is
    # not timed under the warm-up's garbage.
    run_bench(users=min(users, 20), seed=seed,
              transactions_per_user=transactions_per_user,
              horizon=min(horizon, 60.0), fleet=fleet)
    gc.collect()
    optimized = run_bench(users=users, seed=seed,
                          transactions_per_user=transactions_per_user,
                          horizon=horizon, fleet=fleet)
    timed_bytes = json.dumps(optimized["deterministic"], indent=2,
                             sort_keys=True)

    small = min(users, determinism_users)
    single = partial(bench_bytes, small, seed)
    rows = [
        ("caches-bench-timed", lambda: timed_bytes,
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


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
