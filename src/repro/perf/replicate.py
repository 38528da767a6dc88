"""Independent replications: one scenario, R seeds, a confidence interval.

:func:`replicate` runs :func:`~repro.perf.loadgen.run_bench` or
:func:`~repro.faults.chaos.run_chaos` once per seed ``seed, seed+1, …,
seed+R-1`` on a process pool, and reduces the headline metrics to a
mean and a 95% Student-t half-width.  This is standard output analysis
for a stochastic simulation: the replicas share nothing, so each one is
exactly the report a direct call at that seed returns, and the pool
only decides how many of them run at once.  It does not make a single
scenario run faster (DESIGN §15).

The result has three sections:

* ``replicas`` — every replica's unchanged report, keyed by its seed;
* ``summary`` — ``mean``, ``ci95`` (the half-width; ``None`` for one
  replica) and ``n`` per metric, computed only from deterministic
  report fields, so the same arguments give the same bytes;
* ``measured`` — host wall seconds and the process count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import time

from ..opt import OPTIMIZATIONS

__all__ = ["replicate", "summarize", "t_critical"]


def t_critical(df: int) -> float:
    """The 95% two-sided Student-t critical value: ``P(|T| < t) = 0.95``,
    i.e. ``t(0.975, df)``."""
    low, high = 0.0, 1.0
    while _t_central(high, df) < 0.95:
        high *= 2.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if _t_central(mid, df) < 0.95:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _t_central(t: float, df: int) -> float:
    """``P(|T| < t)`` for integer ``df``: Abramowitz & Stegun 26.7.3-4."""
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    odd = df % 2 == 1
    total, term = 0.0, 1.0
    for k in range((df - 1) // 2 if odd else df // 2):
        total += term
        term *= cos2 * ((2 * k + 2) / (2 * k + 3) if odd
                        else (2 * k + 1) / (2 * k + 2))
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta)
                                * total)
    return math.sin(theta) * total


def _metrics(report: dict) -> dict:
    """The summarised fields; a bench report keeps them one level down."""
    det = report.get("deterministic", report)
    return {
        "success_vs_offered": det["success_vs_offered"],
        "latency_p50": det["latency"]["p50"],
        "latency_p95": det["latency"]["p95"],
        "completed": det["completed"],
        "retries": det["retries"],
    }


def summarize(samples: list) -> dict:
    """Mean, 95% t half-width and n per metric over ``samples``."""
    summary = {}
    for name in sorted(samples[0]):
        values = [sample[name] for sample in samples]
        n = len(values)
        half_width = None
        if n > 1:
            half_width = round(t_critical(n - 1) * statistics.stdev(values)
                               / math.sqrt(n), 6)
        summary[name] = {"mean": round(statistics.fmean(values), 6),
                         "ci95": half_width, "n": n}
    return summary


def _run_one(job):
    run, kwargs, flags = job
    # Under a spawn or forkserver start method the worker does not
    # inherit the caller's flags; set them here.
    for name, value in flags.items():
        setattr(OPTIMIZATIONS, name, value)
    return run(**kwargs)


def replicate(run, replications: int, seed: int, **kwargs) -> dict:
    """Run ``run(seed=s, **kwargs)`` for ``R`` consecutive seeds.

    ``run`` is :func:`run_bench` or :func:`run_chaos`; ``kwargs`` are
    passed to every replica unchanged.  The pool has
    ``min(R, os.cpu_count())`` processes.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    seeds = [seed + k for k in range(replications)]
    processes = min(replications, os.cpu_count() or 1)
    flags = OPTIMIZATIONS.as_dict()
    jobs = [(run, dict(kwargs, seed=s), flags) for s in seeds]
    started = time.perf_counter()  # repro: noqa[wall-clock]
    with multiprocessing.Pool(processes) as pool:
        reports = pool.map(_run_one, jobs, chunksize=1)
    wall_seconds = time.perf_counter() - started  # repro: noqa[wall-clock]
    return {
        "replicas": {str(s): report for s, report in zip(seeds, reports)},
        "summary": summarize([_metrics(report) for report in reports]),
        "measured": {"wall_seconds": round(wall_seconds, 4),
                     "processes": processes,
                     "host_cpus": os.cpu_count()},
    }
