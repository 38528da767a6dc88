"""Run workloads in fresh subprocesses and turn their output into metrics.

One simulator process runs at a time: the parent only starts workers
and reads their results, so on a small host the load is one process.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import checks
from .fold import ENTRY
from .stats import iqr, median
from .workloads import NAMES, WORKLOADS

__all__ = ["BenchError", "NAMES", "run_specs", "run_set", "measure_specs",
           "render", "append_history", "build_source", "measure_workload",
           "worker_spec", "metric_tables", "all_failures"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SPEC_JSON = BENCH_DIR / "spec.json"
HISTORY = BENCH_DIR / "history.jsonl"

# A worker that runs longer than this has hung.
WORKER_TIMEOUT_S = 170
# ``measure`` takes the median of at least this many set-ups.
SETUP_SAMPLES = 5

# Traced-run layers reported as ``virt.*`` metrics; web and db together
# are the paper's host computers.  Layers left out (device, app) are
# zero on some workload by construction; the table still shows them.
VIRT_METRICS = {"middleware": "virt.middleware_s",
                "wireless": "virt.wireless_s", "wired": "virt.wired_s",
                "web": "virt.host_s", "db": "virt.host_s"}
# Folded cProfile buckets reported by name (see bench/fold.py); a package
# not named here is charged to host.entry_s.
HOST_BUCKETS = ("sim.kernel", "sim.sched", "sim.other", "net.tcp",
                "net.link", "net.node", "net.other", "wireless", "devices",
                "middleware", "web", "db", "security", "apps", "core",
                "resilience", "obs", ENTRY)


class BenchError(RuntimeError):
    """The benchmark cannot run or a worker failed."""


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def build_source() -> None:
    """Check that the checkout has the simulator's ``src/`` and compile
    its bytecode, so that every worker's set-up imports from bytecode
    whether or not PYTHONDONTWRITEBYTECODE is set."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source at {SRC / 'repro'}; run from "
                         "the root of a full checkout")
    if not compileall.compile_dir(SRC / "repro", quiet=1):
        raise BenchError(f"cannot compile {SRC / 'repro'}")


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    # Hash randomisation changes dict and set layouts, and with them the
    # host time of a run, from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.worker", json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {spec} exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"worker {spec} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_specs(specs, log=None):
    """Run worker specs one at a time, in order: (results, errors).
    ``specs`` may be a generator that decides what to run next from the
    time the runs so far took."""
    results, errors = [], []
    for spec in specs:
        started = time.perf_counter()
        try:
            results.append(spawn(spec))
        except BenchError as exc:
            errors.append(str(exc))
            continue
        if log is not None:
            log(f"{spec['workload']:<14} {spec['mode']:<8} {spec['arm']:<10} "
                f"{time.perf_counter() - started:6.1f}s")
    return results, errors


def rotated(items, shift: int) -> list:
    items = list(items)
    shift %= len(items)
    return items[shift:] + items[:shift]


def worker_spec(name, seed, mode="plain", arm="default", smoke=False):
    spec = {"workload": name, "seed": seed, "mode": mode, "arm": arm}
    if smoke:
        spec["smoke"] = True
    return spec


def measure_specs(name: str, seed: int, seconds: float, trace: bool):
    """What ``measure`` runs.  With ``trace``: one untraced, one traced
    and one profiled run at ``seed``.  Without: passes of untraced runs
    over the workload's seeds (:meth:`Workload.measure_seeds`) while the
    next pass should end within ``seconds``, then set-up-only runs until
    ``setup_s`` has SETUP_SAMPLES samples."""
    if trace:
        for mode in ("plain", "traced", "profiled"):
            yield worker_spec(name, seed, mode)
        return
    seeds = WORKLOADS[name].measure_seeds(seed)
    began = time.perf_counter()
    plain = 0
    while True:
        started = time.perf_counter()
        for run_seed in seeds:
            yield worker_spec(name, run_seed)    # resumes once it is done
        plain += len(seeds)
        now = time.perf_counter()
        if now - began + (now - started) > seconds:
            break
    for _ in range(SETUP_SAMPLES - plain):
        yield worker_spec(name, seed, "setup")


# ------------------------------------------------------------ metrics
def e2e_samples(plain: list, setups: list = ()) -> dict:
    """End-to-end samples, one per untraced run (``setup_s`` also takes
    the setup-only runs).  BENCHMARK.json's metrics come first."""
    def ratio(r):
        return r["accounting"]["succeeded"] / r["accounting"]["offered"]
    return {
        "wall_ref_s": [r["wall_ref_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in list(plain) + list(setups)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "success_vs_offered": [ratio(r) for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "latency_p50_s": [r["latency"]["p50"] for r in plain],
        "latency_p95_s": [r["latency"]["p95"] for r in plain],
    }


def layer_values(plain: list, traced=None, profiled=None) -> dict:
    """Per-layer metrics.  Counts and GC time come from the untraced
    runs; ``virt.*`` and queue depth from the traced run; ``host.*``
    from the profiled run, as a share of its folded time scaled by the
    untraced median ``wall_s``."""
    wall = median([r["wall_s"] for r in plain])
    wall_ref = median([r["wall_ref_s"] for r in plain])
    values = dict(plain[0]["counts"])
    values.update({
        "sim.events_per_s": median([r["counts"]["sim.events"] / r["wall_ref_s"]
                                    for r in plain]),
        "host.gc_s": median([r["gc_s"] for r in plain]),
        "host.gc_collections": median([r["gc_collections"] for r in plain]),
        "setup.import_s": median([r["import_s"] for r in plain]),
        "setup.build_s": median([r["build_s"] for r in plain]),
    })
    if traced is not None:
        for layer, metric in VIRT_METRICS.items():
            values[metric] = (values.get(metric, 0.0)
                              + traced["layers"].get(layer, 0.0))
        values["sim.queue_depth_mean"] = traced["queue_depth_mean"]
        values["sim.queue_depth_max"] = traced["queue_depth_max"]
        values["obs.spans"] = traced["spans"]
        values["obs.traced_wall_ratio"] = traced["wall_ref_s"] / wall_ref
        values["obs.traced_rss_mb"] = traced["peak_rss_mb"]
    if profiled is not None:
        folded = dict(profiled["profile"])
        scale = wall / sum(folded.values())
        for bucket in HOST_BUCKETS:
            values[f"host.{bucket}_s"] = folded.pop(bucket, 0.0) * scale
        values[f"host.{ENTRY}_s"] += sum(folded.values()) * scale
        values["host.profile_inflation"] = profiled["profile_wall_s"] / wall
    return values


def measure_workload(name: str, seed: int, runs: list) -> dict:
    """Fold one workload's worker results into samples, layer values
    and check failures."""
    plain = [r for r in runs if r["mode"] == "plain"
             and r["arm"] == "default"]
    setups = [r for r in runs if r["mode"] == "setup"]
    traced = next((r for r in runs if r["mode"] == "traced"), None)
    profiled = next((r for r in runs if r["mode"] == "profiled"), None)
    return {
        "workload": name,
        "seed": seed,
        "samples": e2e_samples(plain, setups),
        "layers": layer_values(plain, traced, profiled),
        "virt_layers": traced["layers"] if traced is not None else None,
        "latency_samples": plain[0]["latency"]["samples"],
        "det_digest": plain[0]["det_digest"],
        "failures": checks.check_all(runs),
        "runs": runs,
    }


def run_set(names, seed: int, repeat: int = 1, trace: bool = False,
            smoke: bool = False, log=None) -> dict:
    """``repeat`` rounds of one untraced run per workload, the order
    rotating each round; then, with ``trace``, one traced and one
    profiled run per workload."""
    build_source()
    specs = [worker_spec(name, seed, smoke=smoke)
             for round_index in range(repeat)
             for name in rotated(names, round_index)]
    if trace:
        specs += [worker_spec(name, seed, mode, smoke=smoke)
                  for name in names for mode in ("traced", "profiled")]
    results, errors = run_specs(specs, log)
    if errors:
        raise BenchError(errors[0])
    return {
        "seed": seed, "repeat": repeat, "trace": trace,
        "environment": environment(),
        "workloads": {name: measure_workload(
            name, seed, [r for r in results if r["workload"] == name])
            for name in names},
    }


def environment() -> dict:
    """Where and on what the numbers were measured.  ``src_dirty`` is
    true when ``src/`` differs from ``commit``; None outside git."""
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src")
    return {"commit": head or "unknown",
            "src_dirty": None if head is None else bool(status),
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ------------------------------------------------------------ reports
def metric_tables():
    """(end-to-end, per-layer): name -> unit, better and, end to end,
    bound and bound_abs.  ``BENCHMARK.json`` holds every metric it can;
    ``bench/spec.json`` adds the end-to-end metrics that cannot gate
    there and the absolute floors."""
    bench, spec = load_json(BENCHMARK_JSON), load_json(SPEC_JSON)
    e2e = {m["name"]: {key: m[key] for key in ("unit", "better", "bound")}
           for m in bench["end_to_end"]}
    e2e.update({name: {key: entry[key] for key in ("unit", "better", "bound")}
                for name, entry in spec["unlisted_end_to_end"].items()})
    for name, floor in spec["bound_abs"].items():
        e2e[name]["bound_abs"] = floor
    layers = {m["name"]: {"unit": m["unit"], "better": m["better"]}
              for m in bench["per_layer"]}
    return e2e, layers


def summary(result: dict) -> dict:
    """Median and IQR of every metric of every workload."""
    out = {}
    for name, entry in result["workloads"].items():
        metrics = {metric: {"median": median(values), "iqr": iqr(values)}
                   for metric, values in entry["samples"].items()}
        metrics.update({metric: {"median": value, "iqr": 0.0}
                        for metric, value in entry["layers"].items()})
        out[name] = {"det_digest": entry["det_digest"], "metrics": metrics}
    return out


def history_line(result: dict) -> dict:
    return dict(result["environment"], seed=result["seed"],
                repeat=result["repeat"], workloads=summary(result))


def append_history(result: dict, path: Path = HISTORY) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(history_line(result), sort_keys=True) + "\n")


def _fmt(value) -> str:
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def render(result: dict) -> str:
    """Every metric by name with its unit; median and IQR when K > 1;
    with tracing, the two per-layer tables and the counts."""
    e2e, per_layer = metric_tables()
    units = {name: entry["unit"] for table in (e2e, per_layer)
             for name, entry in table.items()}
    repeat = result["repeat"]
    env = result["environment"]
    lines = [f"seed {result['seed']}  K={repeat}  commit {env['commit'][:12]}"
             f"  host_cpus {env['host_cpus']}  python {env['python']}"]
    for name, entry in result["workloads"].items():
        samples = entry["latency_samples"]
        beyond = samples - math.ceil(0.95 * samples)
        lines += ["", f"== {name}  ({samples} latency samples, {beyond} "
                      f"beyond p95; det_digest {entry['det_digest'][:16]})"]
        header = f"  {'metric':<22}{'unit':>10}{'median':>14}"
        lines.append(header + (f"{'IQR':>12}" if repeat > 1 else ""))
        for metric, values in entry["samples"].items():
            row = (f"  {metric:<22}{units[metric]:>10}"
                   f"{_fmt(median(values)):>14}")
            if repeat > 1:
                row += f"{_fmt(iqr(values)):>12}"
            lines.append(row)
        layers = entry["layers"]
        if entry["virt_layers"] is not None:
            lines += _share_table(
                "virtual latency per tier (traced run, by repro layer)",
                "span-s", entry["virt_layers"])
        if f"host.{ENTRY}_s" in layers:
            lines += _share_table(
                "host CPU per subsystem (cProfile shares x median wall_s)",
                "s", {k: v for k, v in layers.items() if _profiled(k)})
        lines += ["  -- other per-layer metrics"]
        for metric, value in layers.items():
            if not (metric.startswith("virt.") or _profiled(metric)):
                lines.append(f"  {metric:<36}{units[metric]:>10}"
                             f"{_fmt(value):>14}")
        for failure in entry["failures"]:
            lines.append(f"  CHECK FAILED: {failure}")
    return "\n".join(lines)


def _profiled(metric: str) -> bool:
    """A host-seconds metric folded from the cProfile run."""
    return (metric.startswith("host.") and metric.endswith("_s")
            and metric != "host.gc_s")


def _share_table(title: str, unit: str, values: dict) -> list:
    total = sum(values.values())
    lines = [f"  -- {title}",
             f"  {'metric':<36}{unit:>10}{'share':>8}"]
    for metric, value in values.items():
        share = 100.0 * value / total if total else 0.0
        lines.append(f"  {metric:<36}{_fmt(value):>10}{share:>7.1f}%")
    lines.append(f"  {'total':<36}{_fmt(total):>10}")
    return lines


def all_failures(result: dict) -> list:
    return [f"{name}: {failure}"
            for name, entry in result["workloads"].items()
            for failure in entry["failures"]]
