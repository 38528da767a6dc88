"""``python -m bench ablate``: time each optimisation arm against the default.

Arms, all on ``gprs-overload`` and ``gprs-light``: the default build,
the heap scheduler, the three caches off, ``gc_isolation`` off, and the
tracer on.  Every round runs each (workload, arm) once, the arm order
rotating each round so host drift spreads over all arms.  The table
records median and IQR of ``wall_s`` and ``peak_rss_mb`` and whether
each arm's ``det_digest`` equals the default's.  It claims nothing.
"""

from __future__ import annotations

from .checks import check_all
from .runner import (BENCH_DIR, BenchError, e2e_samples, environment,
                     build_source, rotated, run_specs, worker_spec)
from .stats import iqr, median
from .worker import ARMS

__all__ = ["ABLATION_WORKLOADS", "run_ablation", "render_ablation"]

ABLATION_MD = BENCH_DIR / "ablation.md"
ABLATION_WORKLOADS = ("gprs-overload", "gprs-light")

_ARM_CALLS = {
    "default": "defaults",
    "heap": '`scheduler_override("heap")`',
    "caches-off": '`optimizations_disabled("dns_cache", "translation_cache",'
                  ' "sql_cache")`',
    "gc-off": '`optimizations_disabled("gc_isolation")`',
    "trace": "`run_bench(trace=True)`",
}


def run_ablation(seed: int, repeat: int, log=None):
    """(markdown text, check failures)."""
    build_source()
    specs = [worker_spec(workload, seed, arm=arm)
             for round_index in range(repeat)
             for workload in ABLATION_WORKLOADS
             for arm in rotated(ARMS, round_index)]
    results, errors = run_specs(specs, log)
    if errors:
        raise BenchError(errors[0])
    runs = {(w, arm): [r for r in results
                       if (r["workload"], r["arm"]) == (w, arm)]
            for w in ABLATION_WORKLOADS for arm in ARMS}
    # Arms may legitimately change the digest (the table reports it), so
    # the checks run per (workload, arm).
    failures = [f"{workload} {arm}: {failure}"
                for (workload, arm), results in runs.items()
                for failure in check_all(results)]
    env = dict(environment(), seed=seed, repeat=repeat)
    return render_ablation(runs, env), failures


def render_ablation(runs: dict, env: dict) -> str:
    lines = [
        "# Ablation of the optimisation arms",
        "",
        f"Commit `{env['commit']}`, host_cpus {env['host_cpus']}, "
        f"Python {env['python']}, seed {env['seed']}, K={env['repeat']} "
        f"runs per arm, measured {env['date']}.",
        "",
        "Made by `python -m bench ablate`. Each run is a fresh untraced "
        "process, one at a time; each round runs every arm once and the "
        "arm order rotates each round. Cells are median (IQR). `wall_s` "
        "is raw host seconds and `wall_ref_s` the same interval in "
        "calibrated reference seconds, the steadier of the two on a "
        "shared host (`bench/README.md`). `vs default` is the arm's "
        "median over the default's: below 1 is faster. `peak_rss_mb` is the "
        "process's `ru_maxrss`. This table claims nothing: a gain needs "
        "the pair rule of `bench/README.md`.",
    ]
    for workload in ABLATION_WORKLOADS:
        default = e2e_samples(runs[(workload, "default")])
        base_wall = median(default["wall_s"])
        base_ref = median(default["wall_ref_s"])
        base_digest = runs[(workload, "default")][0]["det_digest"]
        lines += [
            "",
            f"## {workload}",
            "",
            "| arm | call | wall_s | vs default | wall_ref_s | "
            "vs default | peak_rss_mb | det_digest = default |",
            "|---|---|---:|---:|---:|---:|---:|---|",
        ]
        for arm in ARMS:
            samples = e2e_samples(runs[(workload, arm)])
            wall, ref = samples["wall_s"], samples["wall_ref_s"]
            rss = samples["peak_rss_mb"]
            same = all(r["det_digest"] == base_digest
                       for r in runs[(workload, arm)])
            lines.append(
                f"| {arm} | {_ARM_CALLS[arm]} | "
                f"{median(wall):.3f} ({iqr(wall):.3f}) | "
                f"{median(wall) / base_wall:.3f} | "
                f"{median(ref):.3f} ({iqr(ref):.3f}) | "
                f"{median(ref) / base_ref:.3f} | "
                f"{median(rss):.1f} ({iqr(rss):.1f}) | "
                f"{'yes' if same else 'NO'} |")
    return "\n".join(lines) + "\n"
