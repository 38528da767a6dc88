"""Kernel profiling: what the event loop itself is doing.

A :class:`KernelProfiler` hooks the kernel's dispatch (entries
processed, queue depth over time) and :meth:`Process._resume`
(per-process-name resume counts).  The hooks are behind a nil-cost
default: the kernel carries a ``_profiler`` attribute that is ``None``
unless a profiler is installed, and the only cost of the disabled path
is one ``is None`` check per step.
"""

from __future__ import annotations

__all__ = ["KernelProfiler", "install_profiler"]


class KernelProfiler:
    """Counts kernel work; install with :func:`install_profiler`.

    The queue depth is kept as running totals, not as a series: the
    depth sampled at each dispatch is a step function of virtual time,
    and :meth:`summary` reports its time-weighted mean and maximum.
    """

    def __init__(self):
        self.events_processed = 0
        self.resumes: dict[str, int] = {}
        self._first_time = 0.0
        self._last_time = 0.0
        self._last_depth = 0
        # Integral of the depth step function over virtual time.
        self._depth_area = 0.0
        self._depth_sum = 0
        self._depth_max = 0

    # -- kernel hooks ----------------------------------------------------
    def on_event(self, now: float, queue_depth: int) -> None:
        """Called by the kernel for every dispatched entry (event or
        scheduled call), with the live entries still pending."""
        self.events_processed += 1
        if self.events_processed == 1:
            self._first_time = now
        else:
            self._depth_area += self._last_depth * (now - self._last_time)
        self._last_time = now
        self._last_depth = queue_depth
        self._depth_sum += queue_depth
        if queue_depth > self._depth_max:
            self._depth_max = queue_depth

    def on_resume(self, process) -> None:
        """Called by Process._resume for every process wake-up."""
        name = process.name
        self.resumes[name] = self.resumes.get(name, 0) + 1

    # -- reporting -------------------------------------------------------
    def top_resumed(self, n: int = 10) -> list[tuple[str, int]]:
        return sorted(self.resumes.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def summary(self) -> dict:
        # The time-weighted mean depth; the plain mean of the samples
        # when they span no virtual time, 0.0 with none.
        span = self._last_time - self._first_time
        if span > 0:
            mean_depth = self._depth_area / span
        elif self.events_processed:
            mean_depth = self._depth_sum / self.events_processed
        else:
            mean_depth = 0.0
        return {
            "events_processed": self.events_processed,
            "mean_queue_depth": mean_depth,
            "max_queue_depth": float(self._depth_max),
            "process_resumes": dict(sorted(self.resumes.items())),
        }


def install_profiler(sim) -> KernelProfiler:
    """Attach a fresh profiler to ``sim`` and return it."""
    profiler = KernelProfiler()
    sim._profiler = profiler
    return profiler
