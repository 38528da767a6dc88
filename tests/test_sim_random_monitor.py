"""Tests for seeded random streams and measurement collectors."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Counter, SeedBank, StatSummary


# ------------------------------------------------------------- SeedBank
def test_same_root_seed_same_sequence():
    a = SeedBank(42).stream("loss")
    b = SeedBank(42).stream("loss")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_stream_names_independent():
    bank = SeedBank(42)
    a = bank.stream("loss")
    b = bank.stream("mobility")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_creation_order_irrelevant():
    bank1 = SeedBank(7)
    x1 = bank1.stream("x")
    _ = bank1.stream("y")
    seq1 = [x1.random() for _ in range(5)]

    bank2 = SeedBank(7)
    _ = bank2.stream("y")
    x2 = bank2.stream("x")
    seq2 = [x2.random() for _ in range(5)]
    assert seq1 == seq2


def test_fork_produces_independent_bank():
    bank = SeedBank(1)
    child = bank.fork("cell-3")
    assert child.root_seed != bank.root_seed
    s1 = bank.stream("a").random()
    s2 = child.stream("a").random()
    assert s1 != s2


def test_chance_bounds():
    stream = SeedBank(0).stream("p")
    with pytest.raises(ValueError):
        stream.chance(1.5)
    assert stream.chance(1.0) is True
    assert stream.chance(0.0) is False


def test_expovariate_positive_rate_required():
    stream = SeedBank(0).stream("e")
    with pytest.raises(ValueError):
        stream.expovariate(0)


@given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=20))
def test_stream_reproducible_property(seed, name):
    a = SeedBank(seed).stream(name)
    b = SeedBank(seed).stream(name)
    assert a.random() == b.random()


# -------------------------------------------------------------- Counter
def test_counter_incr_and_get():
    c = Counter()
    c.incr("tx")
    c.incr("tx", 4)
    assert c.get("tx") == 5
    assert c.get("missing") == 0
    assert c.as_dict() == {"tx": 5}


# ----------------------------------------------------------- StatSummary
def test_stat_summary_basics():
    s = StatSummary.of([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    assert s.p50 == 2.0


def test_stat_summary_empty():
    s = StatSummary.of([])
    assert s.count == 0
    assert s.mean == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_stat_summary_invariants(samples):
    import math
    s = StatSummary.of(samples)
    assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
    # Mean is inside [min, max] up to float summation rounding.
    assert (s.minimum <= s.mean <= s.maximum
            or math.isclose(s.mean, s.minimum, rel_tol=1e-9)
            or math.isclose(s.mean, s.maximum, rel_tol=1e-9))


def test_stat_summary_sample_variance():
    import math
    # Bessel-corrected (n-1) variance: for [2, 4, 4, 4, 5, 5, 7, 9] the
    # population stdev is 2.0 but the sample stdev is sqrt(32/7).
    s = StatSummary.of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert s.stdev == pytest.approx(math.sqrt(32.0 / 7.0))


def test_stat_summary_single_sample_stdev_zero():
    s = StatSummary.of([42.0])
    assert s.count == 1
    assert s.stdev == 0.0
