"""Tests for repro.obs: tracing, profiling, breakdowns.

Covers the tentpole acceptance properties: spans nest across the full
device -> host transaction, context propagation survives middleware
re-encoding and TCP segmentation, the per-layer breakdown sums exactly
to the root duration, the profiler's running queue-depth totals equal
the per-sample series they replaced, and both the tracer and the
kernel profiler are off (and cost nothing) by default.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.obs import (
    LAYER_ORDER,
    KernelProfiler,
    Span,
    Tracer,
    format_breakdown,
    install_profiler,
    install_tracer,
    layer_breakdown,
    render_breakdown_table,
    trace_to_dict,
)
from repro.obs.report import _span_depths
from repro.sim import Simulator


def traced_commerce_run(middleware="WAP", bearer=("cellular", "GPRS")):
    system = MCSystemBuilder(middleware=middleware, bearer=bearer).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    tracer = install_tracer(system.sim)
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    return tracer, done.value


# ------------------------------------------------------------- defaults
def test_tracer_and_profiler_off_by_default():
    sim = Simulator()
    assert sim.tracer is None
    assert sim._profiler is None


def test_untraced_system_records_no_spans():
    system = MCSystemBuilder().build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    assert done.value.ok
    assert done.value.trace_id is None
    assert system.sim.tracer is None


def test_tracing_does_not_perturb_measurement():
    # Context rides packets and connections as metadata, never as wire
    # bytes: the traced run's timings equal the untraced run's exactly.
    def run(traced):
        system = MCSystemBuilder().build()
        shop = CommerceApp()
        system.mount_application(shop)
        system.host.payment.open_account("ann", 100_000)
        handle = system.add_station("Toshiba E740")
        if traced:
            install_tracer(system.sim)
        engine = TransactionEngine(system)
        done = engine.run_flow(
            handle, shop.browse_and_buy(account="ann", user="ann"))
        system.run(until=600)
        record = done.value
        return (record.latency, record.requests, record.bytes_received,
                record.ok)

    assert run(False) == run(True)


# ------------------------------------------------- end-to-end span graph
def test_spans_nest_across_full_transaction():
    tracer, record = traced_commerce_run()
    assert record.ok
    spans = tracer.for_trace(record.trace_id)
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    root = roots[0]
    assert root.layer == "app"
    names = {s.name for s in spans}
    # One span per pipeline stage of the paper's six-component path.
    assert "wsp.request" in names       # device-side middleware client
    assert "wap.gateway" in names       # middleware server
    assert "wap.translate" in names     # middleware re-encoding
    assert "web.handle" in names        # host web server
    assert "web.cgi" in names           # application program
    assert "db.query" in names          # database tier
    assert "device.render" in names     # device-side rendering
    for span in spans:
        assert span.finished
        # Spans may outlive the root (session teardown traffic still
        # carries the context) but none can precede it.
        assert root.start <= span.start
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert parent.start <= span.start
    # Every layer of the pipeline is represented.
    layers = {s.layer for s in spans}
    assert {"app", "middleware", "wireless", "wired", "web",
            "db", "device"} <= layers


@pytest.mark.parametrize("middleware", ["WAP", "i-mode", "Palm"])
def test_context_survives_middleware_reencoding(middleware):
    tracer, record = traced_commerce_run(middleware=middleware)
    assert record.ok
    spans = tracer.for_trace(record.trace_id)
    names = {s.name for s in spans}
    # The request is re-encoded at the middleware hop (WSP frame, HTTP
    # proxying, clipping frame) and the context must survive into the
    # origin server and the database behind it.
    assert "web.handle" in names
    assert "db.query" in names


@pytest.mark.parametrize("middleware, prefix",
                         [("WAP", "wsp"), ("i-mode", "imode"),
                          ("Palm", "clip")])
def test_one_connect_span_under_the_first_request(middleware, prefix):
    # Every device-side session opens <prefix>.connect when a request
    # has to establish the connection first, as a child of that request.
    tracer, record = traced_commerce_run(middleware=middleware)
    spans = tracer.for_trace(record.trace_id)
    requests = sorted((s for s in spans if s.name == f"{prefix}.request"),
                      key=lambda s: (s.start, s.span_id))
    connects = [s for s in spans if s.name == f"{prefix}.connect"]
    assert len(requests) > 1
    assert len(connects) == 1
    assert connects[0].parent_id == requests[0].span_id
    assert connects[0].layer == requests[0].layer == "middleware"


def test_context_survives_tcp_segmentation():
    tracer, record = traced_commerce_run()
    spans = tracer.for_trace(record.trace_id)
    link_spans = [s for s in spans if s.name.endswith(".tx")]
    # Link-level transmit spans exist in the same trace: the context was
    # recovered from individual TCP segments, after segmentation.
    assert link_spans
    assert {s.layer for s in link_spans} == {"wireless", "wired"}
    for span in link_spans:
        assert span.trace_id == record.trace_id


def test_breakdown_sums_to_root_duration():
    tracer, record = traced_commerce_run()
    breakdown = layer_breakdown(tracer, trace_id=record.trace_id)
    assert sum(breakdown.values()) == pytest.approx(record.latency,
                                                    abs=1e-9)
    assert set(breakdown) <= set(LAYER_ORDER)
    assert all(v >= 0 for v in breakdown.values())


def test_trace_export_is_json_ready():
    import json

    tracer, record = traced_commerce_run()
    payload = trace_to_dict(tracer, trace_id=record.trace_id)
    encoded = json.dumps(payload)  # raises if anything is unencodable
    decoded = json.loads(encoded)
    assert decoded["root"]["name"] == f"txn.{record.flow_name}"
    assert decoded["breakdown_total"] == pytest.approx(record.latency)
    assert len(decoded["spans"]) == len(tracer.for_trace(record.trace_id))


# ----------------------------------------------------- synthetic traces
def make_span(span_id, layer, start, end, parent_id=None, trace_id=1):
    return Span(name=f"s{span_id}", layer=layer, trace_id=trace_id,
                span_id=span_id, parent_id=parent_id, start=start, end=end)


def test_layer_breakdown_deepest_span_wins():
    spans = [
        make_span(1, "app", 0.0, 10.0),
        make_span(2, "middleware", 1.0, 9.0, parent_id=1),
        make_span(3, "wireless", 2.0, 5.0, parent_id=2),
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {
        "app": pytest.approx(2.0),          # [0,1) and [9,10)
        "middleware": pytest.approx(5.0),   # [1,2) and [5,9)
        "wireless": pytest.approx(3.0),     # [2,5)
    }
    assert sum(breakdown.values()) == pytest.approx(10.0)


def test_layer_breakdown_ties_go_to_latest_start():
    spans = [
        make_span(1, "app", 0.0, 10.0),
        make_span(2, "web", 0.0, 10.0, parent_id=1),
        make_span(3, "db", 4.0, 10.0, parent_id=1),  # same depth as 2
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {"web": pytest.approx(4.0),
                         "db": pytest.approx(6.0)}


def test_layer_breakdown_clips_open_spans():
    spans = [
        make_span(1, "app", 0.0, 6.0),
        make_span(2, "web", 4.0, None, parent_id=1),  # never ended
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {"app": pytest.approx(4.0),
                         "web": pytest.approx(2.0)}


def scan_breakdown(spans):
    """The quadratic reference: rescan every span per interval."""
    root = next(s for s in spans if s.parent_id is None)
    lo, hi = root.start, root.end
    if hi <= lo:
        return {root.layer: 0.0}
    depths = _span_depths(spans)
    clipped = []
    for span in spans:
        start = max(span.start, lo)
        end = min(span.end if span.end is not None else hi, hi)
        if end > start:
            clipped.append((start, end, depths[span.span_id], span))
    boundaries = sorted({t for start, end, _, _ in clipped
                         for t in (start, end)})
    totals = {}
    for left, right in zip(boundaries, boundaries[1:]):
        covering = [
            (depth, span.start, span.span_id, span)
            for start, end, depth, span in clipped
            if start <= left and end >= right
        ]
        _, _, _, winner = max(covering)
        totals[winner.layer] = totals.get(winner.layer, 0.0) + (right - left)
    return totals


# Times on a coarse grid, so starts, ends and depths tie often.
_times = st.integers(0, 12).map(lambda t: t * 0.75)


@st.composite
def span_trees(draw):
    ids = draw(st.permutations(range(1, draw(st.integers(1, 14)) + 1)))
    root_start = draw(_times)
    spans = [make_span(ids[0], draw(st.sampled_from(LAYER_ORDER)),
                       root_start, root_start + draw(_times))]
    for span_id in ids[1:]:
        start = draw(_times)
        end = draw(st.one_of(st.none(), _times.map(lambda t: start + t)))
        spans.append(make_span(
            span_id, draw(st.sampled_from(LAYER_ORDER)), start, end,
            parent_id=draw(st.sampled_from(spans)).span_id))
    return draw(st.permutations(spans))


@settings(max_examples=300, deadline=None)
@given(span_trees())
def test_layer_breakdown_sweep_equals_scan(spans):
    # Same winners in the same order, so the float sums are identical.
    assert list(layer_breakdown(spans).items()) == \
        list(scan_breakdown(spans).items())


def test_layer_breakdown_requires_finished_root():
    with pytest.raises(ValueError):
        layer_breakdown([make_span(1, "app", 0.0, None)])


def test_format_breakdown_distinguishes_wireless_from_wired():
    line = format_breakdown({"wireless": 1.0, "wired": 2.0})
    assert "wls=1.000" in line
    assert "wrd=2.000" in line


def test_render_breakdown_table_has_total():
    table = render_breakdown_table({"web": 1.0, "db": 3.0})
    assert "total" in table
    assert "4.0000" in table
    assert table.index("web") < table.index("db")  # LAYER_ORDER


# ------------------------------------------------------------ the tracer
def test_tracer_ids_are_instance_local():
    sim_a, sim_b = Simulator(), Simulator()
    tracer_a, tracer_b = Tracer(sim_a), Tracer(sim_b)
    span_a = tracer_a.start("one", "app")
    span_b = tracer_b.start("one", "app")
    assert span_a.trace_id == span_b.trace_id
    assert span_a.span_id == span_b.span_id


def test_tracer_max_spans_bound():
    sim = Simulator()
    tracer = Tracer(sim, max_spans=2)
    for _ in range(5):
        tracer.end(tracer.start("s", "app"))
    assert len(tracer) == 2
    assert tracer.dropped == 3


# ------------------------------------------------------------ profiling
def test_profiler_counts_events_and_resumes():
    sim = Simulator()
    profiler = install_profiler(sim)
    assert sim._profiler is profiler

    def worker(env):
        for _ in range(3):
            yield env.timeout(1.0)

    sim.spawn(worker(sim), name="worker")
    sim.run()
    assert profiler.events_processed == sim.events_processed
    assert profiler.resumes.get("worker") == 4  # bootstrap + 3 timeouts
    summary = profiler.summary()
    assert summary["events_processed"] == profiler.events_processed
    assert ("worker", 4) in profiler.top_resumed()


def test_profiler_off_means_no_bookkeeping():
    sim = Simulator()

    def worker(env):
        yield env.timeout(1.0)

    sim.spawn(worker(sim), name="worker")
    sim.run()
    assert sim._profiler is None  # nothing installed, nothing recorded


def _series_depth_summary(samples):
    """Mean and max queue depth as the profiler once computed them from
    a stored ``(time, depth)`` series: the time-weighted mean of the
    step function, the plain mean when it spans no time."""
    times = [time for time, _ in samples]
    values = [float(depth) for _, depth in samples]

    def mean():
        if not values:
            return 0.0
        return sum(values) / len(values)

    if len(times) < 2:
        weighted = mean()
    else:
        area = 0.0
        for i in range(len(times) - 1):
            area += values[i] * (times[i + 1] - times[i])
        span = times[-1] - times[0]
        weighted = area / span if span > 0 else mean()
    return weighted, max(values, default=0.0)


_time_steps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
              allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                       allow_infinity=False),
       steps=st.lists(st.tuples(_time_steps,
                                st.integers(min_value=0, max_value=10**6)),
                      max_size=60))
@example(start=0.0, steps=[])
@example(start=3.0, steps=[(0.0, 7)])
@example(start=1.0, steps=[(0.0, 4), (0.0, 9), (0.0, 2)])
@example(start=0.0, steps=[(0.0, 0), (10.0, 10), (10.0, 0)])
def test_profiler_running_totals_equal_the_old_series(start, steps):
    samples, time = [], start
    for step, depth in steps:
        time += step
        samples.append((time, depth))
    profiler = KernelProfiler()
    for time, depth in samples:
        profiler.on_event(time, depth)
    summary = profiler.summary()
    weighted, peak = _series_depth_summary(samples)
    assert summary["mean_queue_depth"] == weighted
    assert summary["max_queue_depth"] == peak
    assert type(summary["mean_queue_depth"]) is float
    assert type(summary["max_queue_depth"]) is float
