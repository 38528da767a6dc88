"""Performance: the load-generation benchmark and its determinism guards.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports wall-clock throughput alongside a
fully deterministic summary of what the virtual run computed.
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``determinism_check`` is the guard for the optimization pass: it runs
fixed scenarios with the hot-path caches forced on and forced off and
compares the outputs byte for byte.  ``scheduler_check`` applies the
same discipline to the pluggable kernel scheduler (heap vs calendar
queue).  See :mod:`repro.opt` and :mod:`repro.sim.sched`.

``replicate`` runs the bench or a chaos scenario over consecutive seeds
on a process pool and reports a mean and 95% confidence interval per
headline metric.
"""

from .baseline import (
    BASELINES,
    PRE_CALENDAR_BASELINE,
    PRE_OPTIMIZATION_BASELINE,
    baseline_for,
    baselines_for,
)
from .determinism import determinism_check, fleet_check, scheduler_check
from .loadgen import (
    bench_json,
    bench_resilience,
    check_capacity_curve,
    run_bench,
    sweep_bench,
)
from .replicate import replicate
from .report import full_bench, report_to_json

__all__ = ["run_bench", "sweep_bench", "bench_json", "bench_resilience",
           "check_capacity_curve", "determinism_check", "fleet_check",
           "scheduler_check", "replicate", "full_bench", "report_to_json",
           "PRE_OPTIMIZATION_BASELINE", "PRE_CALENDAR_BASELINE",
           "BASELINES", "baseline_for", "baselines_for"]
