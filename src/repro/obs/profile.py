"""Kernel profiling: what the event loop itself is doing.

A :class:`KernelProfiler` hooks the kernel's dispatch (entries
processed, queue depth over time) and :meth:`Process._resume`
(per-process-name resume counts).  The hooks are behind a nil-cost
default: the kernel carries a ``_profiler`` attribute that is ``None``
unless a profiler is installed, and the only cost of the disabled path
is one ``is None`` check per step.
"""

from __future__ import annotations

from ..sim.monitor import TimeSeries

__all__ = ["KernelProfiler", "install_profiler"]


class KernelProfiler:
    """Counts kernel work; install with :func:`install_profiler`."""

    def __init__(self, queue_sample_every: int = 1):
        if queue_sample_every < 1:
            raise ValueError("queue_sample_every must be >= 1")
        self.queue_sample_every = queue_sample_every
        self.events_processed = 0
        self.queue_depth = TimeSeries("kernel.queue_depth")
        self.resumes: dict[str, int] = {}

    # -- kernel hooks ----------------------------------------------------
    def on_event(self, now: float, queue_depth: int) -> None:
        """Called by the kernel for every dispatched entry (event or
        scheduled call), with the live entries still pending."""
        self.events_processed += 1
        if self.events_processed % self.queue_sample_every == 0:
            self.queue_depth.record(now, float(queue_depth))

    def on_resume(self, process) -> None:
        """Called by Process._resume for every process wake-up."""
        name = process.name
        self.resumes[name] = self.resumes.get(name, 0) + 1

    # -- reporting -------------------------------------------------------
    def top_resumed(self, n: int = 10) -> list[tuple[str, int]]:
        return sorted(self.resumes.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def summary(self) -> dict:
        return {
            "events_processed": self.events_processed,
            "mean_queue_depth": self.queue_depth.time_weighted_mean(),
            "max_queue_depth": max(self.queue_depth.values, default=0.0),
            "process_resumes": dict(sorted(self.resumes.items())),
        }


def install_profiler(sim, queue_sample_every: int = 1) -> KernelProfiler:
    """Attach a fresh profiler to ``sim`` and return it."""
    profiler = KernelProfiler(queue_sample_every=queue_sample_every)
    sim._profiler = profiler
    return profiler
