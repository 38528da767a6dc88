"""Performance: the load-generation benchmark and its equivalence guard.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports a fully deterministic summary of
what the virtual run computed (``python -m bench`` does the timing).
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``equivalence_check`` byte-compares a table of ``(name, produce_a,
produce_b)`` rows; ``full_bench`` runs it over the claims that must
not change results: hot-path caches on vs off (see :mod:`repro.opt`),
a fleet of one vs the single gateway, and a fleet of three run twice.

``replicate`` runs the bench or a chaos scenario over consecutive seeds
on a process pool and reports a mean and 95% confidence interval per
headline metric.
"""

from .determinism import equivalence_check
from .loadgen import (
    bench_resilience,
    check_capacity_curve,
    run_bench,
    sweep_bench,
)
from .replicate import replicate
from .report import full_bench

__all__ = ["run_bench", "sweep_bench", "bench_resilience",
           "check_capacity_curve", "equivalence_check",
           "replicate", "full_bench"]
