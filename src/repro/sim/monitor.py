"""Measurement utilities: named counters and summary statistics.

Components count what they do in a :class:`Counter` (their ``stats``);
reports summarise latency samples with :class:`StatSummary` and
:func:`percentile`.
"""

from __future__ import annotations

import math

__all__ = ["Counter", "StatSummary", "percentile"]


class Counter:
    """A monotonically growing named counter set.

    The per-packet counters of ``repro.net`` (node, link and TCP) are
    bumped in ``_counts`` directly, without a call per increment.
    """

    def __init__(self):
        self._counts: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self._counts!r})"


class StatSummary:
    """Summary statistics over a sample set."""

    def __init__(self, count: int, mean: float, stdev: float, minimum: float,
                 maximum: float, p50: float, p95: float, p99: float):
        self.count = count
        self.mean = mean
        self.stdev = stdev
        self.minimum = minimum
        self.maximum = maximum
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99

    @staticmethod
    def of(samples: list[float]) -> "StatSummary":
        if not samples:
            return StatSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        # Sample (Bessel-corrected) variance: these are samples of an
        # open-ended process, not the whole population.  n == 1 carries
        # no spread information, so its stdev is 0 by convention.
        if n > 1:
            var = sum((x - mean) ** 2 for x in ordered) / (n - 1)
        else:
            var = 0.0
        return StatSummary(
            count=n,
            mean=mean,
            stdev=math.sqrt(var),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
        )


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted list (0.0 when empty).

    Deterministic, no interpolation: the ``ceil(q * n)``-th smallest
    sample, ``0 <= q <= 1``.
    """
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
