"""The shared shopper workload: its accounting and the one percentile.

``run_bench`` and ``run_chaos`` both drive their shoppers through
:func:`repro.core.shoppers.run_shoppers`.  The sha256 of each report's
canonical JSON is pinned in ``tests/pins.json`` (README, "Pins").
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shoppers import canonical_json
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.perf.loadgen import run_bench
from repro.sim import AllOf, AnyOf, Timeout, percentile

HORIZON = st.floats(min_value=20.0, max_value=120.0)
SEED = st.integers(min_value=0, max_value=2**16)
BENCH_RUNS = st.fixed_dictionaries(dict(
    users=st.integers(1, 8), transactions_per_user=st.integers(1, 3),
    horizon=HORIZON, middleware=st.sampled_from(["WAP", "i-mode", "Palm"]),
    fleet=st.integers(0, 3), seed=SEED)).map(lambda kw: (run_bench, kw))
CHAOS_RUNS = st.fixed_dictionaries(dict(
    scenario=st.sampled_from(sorted(SCENARIOS)), stations=st.integers(1, 5),
    transactions_per_station=st.integers(1, 3), horizon=HORIZON,
    intensity=st.floats(min_value=0.0, max_value=2.0),
    fleet=st.integers(0, 3), seed=SEED)).map(lambda kw: (run_chaos, kw))


def _dead_timers(sim):
    """Live queued timers whose every waiter is a race already decided."""
    return [entry for entry in (*sim._heap, *sim._lane)
            if entry[3] is None and isinstance(entry[4], Timeout)
            and not entry[4]._cancelled
            and entry[4].callbacks and all(
                isinstance(getattr(callback, "__self__", None),
                           (AllOf, AnyOf)) and callback.__self__.triggered
                for callback in entry[4].callbacks)]


@settings(max_examples=70, deadline=None)
@given(st.one_of(BENCH_RUNS, CHAOS_RUNS))
def test_accounting_holds_over_drawn_runs(drawn):
    """Every offered purchase is counted once, whatever the config, the
    same seed gives the same bytes, and no timer outlives its race."""
    run, kwargs = drawn
    built = []
    report = run(**kwargs, post_build=lambda system, _: built.append(system))
    assert canonical_json(run(**kwargs)) == canonical_json(report)
    assert _dead_timers(built[0].sim) == []
    if run is run_bench:
        report = report["deterministic"]
        offered = kwargs["users"] * kwargs["transactions_per_user"]
        assert offered >= report["started"] >= report["completed"]
        assert report["admitted"] + report["rejected"] == report["started"]
        assert report["rejected"] <= \
            report["completed"] - report["succeeded"]
        assert report["succeeded"] == report["successful"]
    else:
        offered = kwargs["stations"] * kwargs["transactions_per_station"]
        if kwargs["scenario"] == "canary-regression":
            assert report["fleet"]["stranded_sessions"] == 0
    assert report["offered"] == offered
    assert offered >= report["completed"] >= report["successful"]
    assert report["success_vs_offered"] == \
        round(report["successful"] / offered, 6)


def test_chaos_rejects_non_positive_counts():
    # Both runners share run_shoppers' check (run_bench's is pinned in
    # tests/test_perf_bench.py).
    with pytest.raises(ValueError, match="stations must be >= 1"):
        run_chaos("storm", stations=-2)
    with pytest.raises(ValueError, match="transactions must be >= 1"):
        run_chaos("storm", transactions_per_station=0)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_is_nearest_rank(values, q):
    ordered = sorted(values)
    if not ordered:
        assert percentile(ordered, q) == 0.0
    else:
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        assert percentile(ordered, q) == ordered[rank]
