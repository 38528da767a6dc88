"""Measurement utilities: counters, time series, latency statistics.

Benchmarks and tests observe the simulated system exclusively through
these collectors, which keeps instrumentation out of the protocol code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Counter", "TimeSeries", "StatSummary", "LatencyRecorder", "Trace",
           "percentile"]


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


class TimeSeries:
    """(time, value) samples with integration helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def rate(self) -> float:
        """Total value divided by the observed time span."""
        if len(self.times) < 2:
            return 0.0
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return 0.0
        return sum(self.values) / span

    def time_weighted_mean(self) -> float:
        """Mean of a step function sampled at change points."""
        if len(self.times) < 2:
            return self.mean()
        area = 0.0
        for i in range(len(self.times) - 1):
            area += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        return area / span if span > 0 else self.mean()


@dataclass
class StatSummary:
    """Summary statistics over a sample set."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

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


class LatencyRecorder:
    """Start/stop latency measurement keyed by an arbitrary token."""

    def __init__(self):
        self._open: dict[Any, float] = {}
        self.samples: list[float] = []

    def start(self, token: Any, now: float) -> None:
        self._open[token] = now

    def stop(self, token: Any, now: float) -> Optional[float]:
        """Close the measurement for ``token``; returns the latency."""
        begin = self._open.pop(token, None)
        if begin is None:
            return None
        latency = now - begin
        self.samples.append(latency)
        return latency

    @property
    def in_flight(self) -> int:
        return len(self._open)

    def summary(self) -> StatSummary:
        return StatSummary.of(self.samples)


@dataclass
class Trace:
    """An append-only structured event log.

    ``max_entries`` bounds memory on long runs: when set, the oldest
    entries are discarded first and ``dropped`` counts the loss.
    """

    entries: list[tuple[float, str, dict]] = field(default_factory=list)
    enabled: bool = True
    max_entries: Optional[int] = None
    dropped: int = 0

    def log(self, time: float, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.entries.append((time, kind, fields))
        if self.max_entries is not None and len(self.entries) > self.max_entries:
            overflow = len(self.entries) - self.max_entries
            del self.entries[:overflow]
            self.dropped += overflow

    def of_kind(self, kind: str) -> list[tuple[float, str, dict]]:
        return [e for e in self.entries if e[1] == kind]

    def __len__(self) -> int:
        return len(self.entries)
