"""Performance: the load-generation benchmark.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports a fully deterministic summary of
what the virtual run computed (``python -m bench`` does the timing).
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``replicate`` runs the bench or a chaos scenario over consecutive seeds
on a process pool and reports a mean and 95% confidence interval per
headline metric.
"""

from .loadgen import (
    bench_resilience,
    check_capacity_curve,
    run_bench,
    sweep_bench,
)
from .replicate import replicate

__all__ = ["run_bench", "sweep_bench", "bench_resilience",
           "check_capacity_curve", "replicate"]
