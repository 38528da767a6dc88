"""Central metrics registry.

Subsumes the ad-hoc collectors of :mod:`repro.sim.monitor` behind one
named namespace: components ask the registry for a counter, a time
series or a latency recorder by dotted name, and benchmarks read one
aggregated snapshot instead of fishing collectors out of a dozen
objects.  The monitor primitives themselves are re-exported here so
``repro.obs`` is the one import observability code needs.
"""

from __future__ import annotations

from typing import Optional

from ..sim.monitor import (
    Counter,
    LatencyRecorder,
    StatSummary,
    TimeSeries,
    Trace,
)

__all__ = [
    "Gauge",
    "MetricsRegistry",
    "Counter",
    "LatencyRecorder",
    "StatSummary",
    "TimeSeries",
    "Trace",
]


class Gauge:
    """A live instantaneous value (queue depth, pool size, backlog).

    Unlike a :class:`Counter` (monotone accumulation) or a
    :class:`TimeSeries` (retained history), a gauge holds only the
    current reading plus its high-water mark — cheap enough to update
    on every queue mutation, which is what lets a monitor read *live*
    values instead of poking component internals after the run.
    """

    __slots__ = ("value", "peak", "updates")

    def __init__(self):
        self.value = 0.0
        self.peak = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value
        self.updates += 1

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def as_dict(self) -> dict:
        return {"value": self.value, "peak": self.peak,
                "updates": self.updates}


class MetricsRegistry:
    """Named, get-or-create access to the monitor collectors."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._series: dict[str, TimeSeries] = {}
        self._latencies: dict[str, LatencyRecorder] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def timeseries(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name)
        return series

    def latency(self, name: str) -> LatencyRecorder:
        recorder = self._latencies.get(name)
        if recorder is None:
            recorder = self._latencies[name] = LatencyRecorder()
        return recorder

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    # -- convenience recording -------------------------------------------
    def incr(self, name: str, key: str, amount: int = 1) -> None:
        self.counter(name).incr(key, amount)

    def record(self, name: str, time: float, value: float) -> None:
        self.timeseries(name).record(time, value)

    # -- aggregation -----------------------------------------------------
    def summary(self, name: str) -> Optional[StatSummary]:
        """StatSummary for a latency recorder, None when unknown."""
        recorder = self._latencies.get(name)
        if recorder is None:
            return None
        return recorder.summary()

    def names(self) -> list[str]:
        return sorted(set(self._counters) | set(self._series)
                      | set(self._latencies) | set(self._gauges))

    def snapshot(self) -> dict:
        """One JSON-friendly dict of everything the registry holds."""
        out: dict = {"counters": {}, "series": {}, "latencies": {},
                     "gauges": {}}
        for name, gauge in sorted(self._gauges.items()):
            out["gauges"][name] = gauge.as_dict()
        for name, counter in sorted(self._counters.items()):
            out["counters"][name] = counter.as_dict()
        for name, series in sorted(self._series.items()):
            out["series"][name] = {
                "count": len(series),
                "mean": series.mean(),
                "time_weighted_mean": series.time_weighted_mean(),
            }
        for name, recorder in sorted(self._latencies.items()):
            summary = recorder.summary()
            out["latencies"][name] = {
                "count": summary.count,
                "mean": summary.mean,
                "stdev": summary.stdev,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "min": summary.minimum,
                "max": summary.maximum,
            }
        return out
