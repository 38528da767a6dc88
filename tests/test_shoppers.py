"""The shared shopper workload: byte pins and the one percentile.

``run_bench`` and ``run_chaos`` both drive their shoppers through
:func:`repro.core.shoppers.run_shoppers`.  The sha256 of each report's
canonical JSON is pinned, so any change to build order, seed-stream
creation, spawn order or the shared report fields shows up here as a
different digest.
"""

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from repro.core.shoppers import canonical_json
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.perf.loadgen import run_bench
from repro.sim import percentile

BENCH = dict(users=20, seed=7, transactions_per_user=3, horizon=120.0)
CHAOS = dict(seed=11, transactions_per_station=3, horizon=120.0)

PINNED = {
    "bench-traced":
        "37589b0c76c8f02c926457f0992d6972bd9361b050965c8c0b56bdca11147e0e",
    "bench-fleet3":
        "5f2673959d9394203643cbcd3fc38d33a2b35d09a17ecc77c1139855324d0d0d",
    "bench-imode-untraced":
        "13d943856871c9d87bcd4508718e67af7c52af9c316efed3111a0cd7292c5758",
    "chaos-flaky-radio":
        "5e79635ef550cb5da29a1e7ac6f5a0a85a8ac076d0545c1811b4572d5142f784",
    "chaos-gateway-outage":
        "d9036c5db0274d1b50d23ff724bb0b5ddca4e9300626c76b24275887cee32886",
    "chaos-brownout":
        "d017a6ff2fe13a64e217ddeea77ae41f2fcd8122438864eb20be86450c66599b",
    "chaos-dns-blackout":
        "5c386c9019f8c01c8cb693941baa38ce8076189df9f8679f31bb9b3defadae89",
    "chaos-storm":
        "5ec5af0c3f77171f38d3017baab5d4c0988acab5c11247d4f242bee15936a157",
    "chaos-fleet-outage":
        "762b6f64905fb07065e78d4afba14c71b08316be1310aaae7acb782f592ceed5",
    "chaos-canary-regression":
        "f3cddd857121319504f184f34dfef7001247edc1037f3e4e37eb7b40cfb87eb4",
    "chaos-storm-palm-off":
        "d982ab8eb1150a67e6a31c529b84b3563ec1efe73dd1d7bfb9b5bed9cac932c9",
}

RUNS = {
    "bench-traced": lambda: run_bench(**BENCH),
    "bench-fleet3": lambda: run_bench(fleet=3, **BENCH),
    "bench-imode-untraced": lambda: run_bench(middleware="i-mode",
                                              trace=False, **BENCH),
    "chaos-storm-palm-off": lambda: run_chaos("storm", middleware="Palm",
                                              policies=False, **CHAOS),
}
for _name in SCENARIOS:
    RUNS[f"chaos-{_name}"] = (
        lambda name: lambda: run_chaos(name, **CHAOS))(_name)


def test_every_chaos_scenario_is_pinned():
    assert sorted(RUNS) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    text = canonical_json(RUNS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


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
