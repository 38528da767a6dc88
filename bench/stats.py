"""Medians, spreads and compare verdicts.

The verdict rules:

* ``better`` -- at least ten pairs ran, the change wins at least 9 of
  every 10 of them (ties count for neither side), and its median beats
  the base median by more than the base's own spread (the distance
  between its quartiles);
* ``worse`` -- the change's median is worse than the base's by more
  than the metric's bound, and the spread is within the bound;
* ``unresolved`` -- the spread is wider than the bound, unless every
  run of the change reads better than every run of the base;
* ``unchanged`` -- otherwise.
"""

from __future__ import annotations

import statistics

__all__ = ["median", "iqr", "allowed_worsening", "verdict"]

CLAIM_MIN_PAIRS = 10


def median(values) -> float:
    return statistics.median(values)


def iqr(values) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def allowed_worsening(base_median: float, bound: float,
                      bound_abs: float = 0.0) -> float:
    """How far the change's median may move the wrong way."""
    return max(bound * abs(base_median), bound_abs)


def _gain(a: float, b: float, better: str) -> float:
    """Positive when ``b`` reads better than ``a``."""
    return (a - b) if better == "lower" else (b - a)


def verdict(base, change, better: str, bound: float,
            bound_abs: float = 0.0) -> dict:
    """Compare two lists of samples of one metric on one workload.

    ``base`` and ``change`` are ordered so that ``base[i]`` and
    ``change[i]`` ran as a pair; extra runs on either side take part in
    the medians but not in the pair count.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if not base or not change:
        raise ValueError("both sides need at least one sample")
    base_median, change_median = median(base), median(change)
    spread = max(iqr(base), iqr(change))
    allowed = allowed_worsening(base_median, bound, bound_abs)
    gain = _gain(base_median, change_median, better)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if _gain(a, b, better) > 0)
    all_better = min(_gain(a, b, better) for a in base for b in change) > 0

    if (len(pairs) >= CLAIM_MIN_PAIRS and wins * 10 >= 9 * len(pairs)
            and gain > iqr(base)):
        outcome = "better"
    elif spread > allowed and not all_better:
        outcome = "unresolved"
    elif -gain > allowed:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"verdict": outcome, "base_median": base_median,
            "change_median": change_median, "base_iqr": iqr(base),
            "change_iqr": iqr(change), "allowed": allowed,
            "pair_wins": wins, "pairs": len(pairs)}
