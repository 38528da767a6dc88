"""Performance: the load-generation benchmark and its determinism guards.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports wall-clock throughput alongside a
fully deterministic summary of what the virtual run computed.
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``determinism_check`` is the guard for the optimization pass: it runs
fixed scenarios with the hot-path caches forced on and forced off and
compares the outputs byte for byte (see :mod:`repro.opt`).
``fleet_check`` does the same for the gateway-fleet wiring.

``replicate`` runs the bench or a chaos scenario over consecutive seeds
on a process pool and reports a mean and 95% confidence interval per
headline metric.
"""

from .determinism import determinism_check, fleet_check
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
           "replicate", "full_bench", "report_to_json"]
