"""One workload run in a fresh process.

    python -m bench.worker '{"workload": "gprs-light", "seed": 7, "mode": "plain"}'

The parent (``bench.runner``) starts one of these per run and reads the
JSON object it prints as its last line.  The simulator is timed from
outside, through its public entry points ``repro.perf.loadgen.run_bench``
and ``repro.faults.chaos.run_chaos`` and their ``post_build(system,
engine)`` hook:

* ``setup_s`` runs from just before ``import repro`` until
  ``post_build``, in calibrated reference seconds;
* ``wall_s`` runs from ``post_build`` until the public call returns, and
  ``wall_ref_s`` is the same interval in reference seconds
  (:class:`Clock`).

Modes:

* ``plain`` -- untraced; gives the end-to-end metrics, the counts read
  from the report and the components' ``.stats`` counters, and GC time
  from a ``gc.callbacks`` timer;
* ``traced`` -- the program's own tracer and kernel profiler; gives
  virtual seconds per layer and queue depth;
* ``profiled`` -- stdlib ``cProfile`` over a sample of the run, folded
  into host seconds per layer;
* ``setup`` -- import and build only, for more ``setup_s`` samples.

``arm`` selects an ablation: ``heap`` (the heap scheduler),
``caches-off``, ``gc-off`` or ``trace`` (tracer on while timing).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from .fold import classify, fold_stats, profile_stats
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODES = ("plain", "traced", "profiled", "setup")
ARMS = ("default", "heap", "caches-off", "gc-off", "trace")
CACHES = ("dns_cache", "translation_cache", "sql_cache")

# Host speed on a shared virtual machine swings by up to 2x within
# seconds as other tenants come and go, which moves ``wall_s`` by 10-25%
# between runs.  So the run is cut into SLICES virtual-time slices and a
# fixed interpreter loop of CAL_LOOPS steps is timed after each
# (:class:`Clock`).  REF_LOOP_S turns loop units into reference seconds.
# Finer slices track the host's speed more closely: over paired runs the
# spread of wall_ref_s was 4.1% with 384 slices against 5.9% with 96 on
# gprs-light (23 pairs), and 3.2% against 6.7% on gprs-overload (12).
SLICES = 384
CAL_LOOPS = 4000
REF_LOOP_S = 0.0005
# Loops timed on each side of set-up.
SETUP_LOOPS = 3
# cProfile makes the simulator about 3x slower, which took a fully
# profiled fleet4 run past 40 s.  The profiled run therefore profiles the
# first segment (GC freeze and first slice), the last (the report), and
# every PROFILE_EVERY-th slice between them, and scales that sample up.
PROFILE_EVERY = 4


class _SetupDone(Exception):
    """Raised from ``post_build`` in ``setup`` mode to stop before the run."""


class GcTimer:
    """A ``gc.callbacks`` entry that sums collection time and count."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None


def _count_to(n):
    for i in range(n):
        yield i


def calibration_loop() -> float:
    """Host seconds for one fixed pass of interpreter work."""
    started = time.perf_counter()
    table: dict = {}
    for i in _count_to(CAL_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


class Clock:
    """Host time from ``post_build`` until the public call returns.

    The interval is cut into segments, and the calibration loop is timed
    before the first and after each one.  A segment's host time divided
    by the loop times beside it is its work in units of that loop, from
    which the host's speed of the moment cancels out.  ``profiler_for``
    maps a segment's index to the profiler to run during it, or None.
    """

    def __init__(self, profiler_for=lambda index: None):
        self.profiler_for = profiler_for
        self.segments: list = []
        self.loops = [calibration_loop()]
        self._start()

    def _start(self):
        self._profiler = self.profiler_for(len(self.segments))
        if self._profiler is not None:
            self._profiler.enable()
        self._since = time.perf_counter()

    def mark(self, last: bool = False):
        """End the current segment and, unless ``last``, start the next."""
        self.segments.append(time.perf_counter() - self._since)
        if self._profiler is not None:
            self._profiler.disable()
        self.loops.append(calibration_loop())
        if not last:
            self._start()

    def wall_s(self) -> float:
        return sum(self.segments)

    def ref_seconds(self) -> float:
        """The segments at the reference speed.  Segment ``i`` lies
        between loops ``i`` and ``i + 1``; it is scaled by the median of
        the loops around it, which damps one an interrupt happened to hit."""
        total = 0.0
        for index, seconds in enumerate(self.segments):
            near = statistics.median(self.loops[max(0, index - 1):index + 3])
            total += seconds * REF_LOOP_S / near
        return total


class SlicedRun:
    """Stands in for ``system.run``: runs in virtual-time slices of about
    ``horizon / SLICES``, marking the clock after each.  Running to a
    time in slices is observably identical to one call: the kernel stops
    and resumes its dispatch loop."""

    def __init__(self, system, horizon: float, clock: Clock):
        self.run = system.run
        self.sim = system.sim
        self.step = horizon / SLICES
        self.clock = clock

    def __call__(self, until=None):
        start = self.sim.now
        pieces = 1 if until is None else max(1, round((until - start)
                                                      / self.step))
        for piece in range(1, pieces + 1):
            end = until if piece == pieces else \
                start + (until - start) * piece / pieces
            self.run(until=end)
            self.clock.mark()


class SampledProfile:
    """The profiled run's two profilers: one over the first and last
    segments, one over every PROFILE_EVERY-th segment between them."""

    def __init__(self):
        self.edges = cProfile.Profile()
        self.sampled = cProfile.Profile()

    def profiler_for(self, index):
        if index == 0 or index >= SLICES:
            return self.edges
        return self.sampled if index % PROFILE_EVERY == 0 else None

    def disable(self):
        self.edges.disable()
        self.sampled.disable()

    def fold(self, clock: Clock, package_dir: str) -> dict:
        """Folded seconds per bucket and the profiled wall time, both
        scaled to the whole run: the middle segments by how many of them
        the sample skipped."""
        kinds = [self.profiler_for(i) for i in range(len(clock.segments))]
        edge_s = sum(seconds for seconds, kind in zip(clock.segments, kinds)
                     if kind is self.edges)
        picked_s = sum(seconds for seconds, kind in zip(clock.segments, kinds)
                       if kind is self.sampled)
        scale = (sum(kind is not self.edges for kind in kinds)
                 / sum(kind is self.sampled for kind in kinds))

        def fold(profiler):
            return fold_stats(profile_stats(profiler),
                              lambda f: classify(f, package_dir))

        folded = fold(self.edges)
        for bucket, seconds in fold(self.sampled).items():
            folded[bucket] = folded.get(bucket, 0.0) + scale * seconds
        return {"profile": folded,
                "profile_wall_s": edge_s + scale * picked_s}


def nearest_rank(values, q):
    """Nearest-rank percentile, the definition the program reports."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(q * len(ordered))
    if rank < q * len(ordered):
        rank += 1
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


def det_section(workload, report: dict) -> dict:
    """The report's deterministic section without tracing output."""
    if workload.call == "run_bench":
        det = dict(report["deterministic"])
    else:
        det = dict(report)
    det.pop("layers", None)
    det.pop("spans", None)
    return det


def digest(det: dict) -> str:
    canonical = json.dumps(det, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _gateways(system):
    if system.fleet is not None:
        return [member.gateway for member in system.fleet.members.values()]
    return [gw for gw in (system.gateway, system.standby_gateway)
            if gw is not None]


def _drops(counter) -> int:
    return sum(value for key, value in counter.as_dict().items()
               if key.endswith("_drops"))


def accounting(workload, report: dict, engine) -> dict:
    """Offered/started/admitted/rejected/completed/succeeded.

    The bench report carries all six.  The chaos report has no
    started/admitted/rejected, so those come from the engine's ledger
    with the bench report's definition of a rejection (a failed
    transaction that saw a 503).
    """
    if workload.call == "run_bench":
        det = report["deterministic"]
        return {key: det[key] for key in ("offered", "started", "admitted",
                                          "rejected", "completed",
                                          "succeeded")}
    started = len(engine.records)
    rejected = sum(1 for record in engine.completed
                   if not record.ok and record.shed_503s > 0)
    return {"offered": report["offered"], "started": started,
            "admitted": started - rejected, "rejected": rejected,
            "completed": report["completed"],
            "succeeded": report["successful"]}


def counts(workload, report: dict, system, engine) -> dict:
    """Per-layer work counts from the report and public ``.stats``."""
    host = system.host
    nodes = system.network.nodes
    gateways = _gateways(system)
    records = engine.completed
    acct = accounting(workload, report, engine)

    def gw_sum(key):
        return sum(gw.stats.get(key) for gw in gateways)

    return {
        "sim.events": system.sim.events_processed,
        "net.packets_forwarded": sum(n.stats.get("forwarded") for n in nodes),
        "net.drops": (sum(_drops(n.stats) for n in nodes)
                      + sum(_drops(link.stats)
                            for link in system.network.links)),
        "web.requests": host.web_server.stats.get("requests"),
        "db.queries": host.db_server.stats.get("queries"),
        "security.captured": host.payment.stats.get("captured"),
        "middleware.batches": gw_sum("batches"),
        "middleware.batched_requests": gw_sum("batched_requests"),
        "middleware.watermark_sheds": gw_sum("admission_sheds"),
        "middleware.pressure_sheds": gw_sum("pressure_sheds"),
        "middleware.translation_cache_hits": sum(
            getattr(gw, "translation_cache_hits", 0) for gw in gateways),
        "core.started": acct["started"],
        "core.completed": acct["completed"],
        "core.retries": sum(record.retries for record in records),
        "core.shed_503s": sum(record.shed_503s for record in records),
        "core.admitted_ratio": (acct["admitted"] / acct["started"]
                                if acct["started"] else 0.0),
        "faults.injected": report.get("faults", {}).get("injected", 0),
    }


def layer_seconds(tracer, engine, layer_breakdown) -> dict:
    """Virtual seconds per layer over every completed transaction's
    trace, plus those transactions' summed latency to check it against."""
    by_trace: dict = {}
    for span in tracer.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    layers: dict = {}
    latency = 0.0
    for record in engine.completed:
        spans = by_trace.get(record.trace_id)
        if not spans:
            continue
        root = next(s for s in spans if s.parent_id is None)
        for layer, seconds in layer_breakdown(spans, root=root).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        latency += record.latency
    return {"layers": layers, "closed_latency_s": latency}


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    mode = spec.get("mode", "plain")
    arm = spec.get("arm", "default")
    if mode not in MODES or arm not in ARMS:
        raise ValueError(f"unknown mode {mode!r} or arm {arm!r}")
    kwargs = dict(workload.kwargs, seed=spec["seed"])
    if spec.get("smoke"):
        kwargs.update(workload.smoke)

    # Set-up is timed in reference seconds too, against loops timed just
    # before it and just after it (in post_build).
    setup_loops = [calibration_loop() for _ in range(SETUP_LOOPS)]
    t0 = time.perf_counter()
    import repro
    from repro.faults.chaos import run_chaos, scenario_plan
    from repro.obs import install_profiler, install_tracer, layer_breakdown
    from repro.opt import optimizations_disabled
    from repro.perf.loadgen import run_bench
    from repro.sim import SeedBank, scheduler_override
    t_import = time.perf_counter()

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {SRC}")

    traced = mode == "traced" or arm == "trace"
    if workload.call == "run_bench":
        call = run_bench
        kwargs["trace"] = traced
    else:
        call = run_chaos
        # The stream run_chaos itself would draw the storm from.
        stream = SeedBank(workload.plan_seed).stream("chaos-plan")
        kwargs["plan"] = scenario_plan(kwargs["scenario"], stream,
                                       kwargs["horizon"],
                                       kwargs["intensity"])
    state: dict = {}
    gc_timer = GcTimer()
    profile = SampledProfile() if mode == "profiled" else None

    def post_build(system, engine):
        state["t_build"] = time.perf_counter()
        setup_loops.extend(calibration_loop() for _ in range(SETUP_LOOPS))
        state["system"], state["engine"] = system, engine
        if mode == "setup":
            raise _SetupDone
        if traced and system.sim.tracer is None:
            install_tracer(system.sim)
        if mode == "traced":
            state["kernel"] = install_profiler(system.sim)
        if mode == "plain":
            gc.callbacks.append(gc_timer)
        clock = state["clock"] = (Clock() if profile is None
                                  else Clock(profile.profiler_for))
        system.run = SlicedRun(system, kwargs["horizon"], clock)

    with ExitStack() as stack:
        if arm == "heap":
            stack.enter_context(scheduler_override("heap"))
        elif arm == "caches-off":
            stack.enter_context(optimizations_disabled(*CACHES))
        elif arm == "gc-off":
            stack.enter_context(optimizations_disabled("gc_isolation"))
        try:
            report = call(post_build=post_build, **kwargs)
            if mode != "setup":
                state["clock"].mark(last=True)
        except _SetupDone:
            report = None
        finally:
            if profile is not None:
                profile.disable()
            if gc_timer in gc.callbacks:
                gc.callbacks.remove(gc_timer)

    to_ref = REF_LOOP_S / statistics.median(setup_loops)
    out = {
        "workload": workload.name, "seed": spec["seed"], "mode": mode,
        "arm": arm,
        "import_s": (t_import - t0) * to_ref,
        "build_s": (state["t_build"] - t_import) * to_ref,
        "setup_s": (state["t_build"] - t0) * to_ref,
    }
    if report is None:
        return out

    system, engine, clock = state["system"], state["engine"], state["clock"]
    det = det_section(workload, report)
    latencies = engine.latencies()
    out.update({
        "wall_s": clock.wall_s(),
        "wall_ref_s": clock.ref_seconds(),
        "segments": len(clock.segments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "det_digest": digest(det),
        "accounting": accounting(workload, report, engine),
        "latency": {
            "p50": det["latency"]["p50"], "p95": det["latency"]["p95"],
            "samples": len(latencies),
            "p50_recomputed": round(nearest_rank(latencies, 0.50), 6),
            "p95_recomputed": round(nearest_rank(latencies, 0.95), 6),
        },
    })
    if mode == "plain":
        out["gc_s"] = gc_timer.seconds
        out["gc_collections"] = gc_timer.collections
        out["counts"] = counts(workload, report, system, engine)
    elif mode == "traced":
        kernel = state["kernel"].summary()
        out.update(layer_seconds(system.sim.tracer, engine, layer_breakdown))
        out["spans"] = len(system.sim.tracer.spans)
        out["queue_depth_mean"] = kernel["mean_queue_depth"]
        out["queue_depth_max"] = kernel["max_queue_depth"]
    elif mode == "profiled":
        package_dir = str(Path(repro.__file__).resolve().parent)
        out.update(profile.fold(clock, package_dir))
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python -m bench.worker SPEC_JSON", file=sys.stderr)
        return 2
    result = run(json.loads(argv[1]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
