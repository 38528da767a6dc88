"""A circuit breaker on the simulation clock.

Classic three-state machine guarding gateway -> origin calls:

* **closed** — calls flow; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures every
  call is rejected up front (the gateway answers 503 with a
  ``Retry-After`` hint) until ``recovery_time`` sim-seconds pass;
* **half-open** — a bounded number of probe calls go through; one
  success closes the breaker, one failure re-opens it.

All transitions read ``sim.now`` only, and every trip/rejection is
counted in :attr:`CircuitBreaker.stats` so chaos reports can show the
breaker actually doing its job.
"""

from __future__ import annotations

from ..sim import Counter, Simulator

__all__ = ["CircuitBreaker", "CircuitOpenError"]


class CircuitOpenError(Exception):
    """Raised by :meth:`CircuitBreaker.check` while the circuit is open."""


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe window."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, sim: Simulator, failure_threshold: int = 5,
                 recovery_time: float = 10.0, half_open_max: int = 1,
                 name: str = "breaker"):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        self.sim = sim
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_max = half_open_max
        self.state = CircuitBreaker.CLOSED
        self.stats = Counter()
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0

    @property
    def retry_after(self) -> float:
        """Sim-seconds until the breaker would move to half-open."""
        if self.state != CircuitBreaker.OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.recovery_time - self.sim.now)

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts rejections.)"""
        if self.state == CircuitBreaker.OPEN:
            if self.sim.now - self._opened_at >= self.recovery_time:
                # Breaker transitions are driven by call outcomes, each
                # in its own kernel event; outcomes at one instant apply
                # in tie-break order (DESIGN §11).
                self.state = CircuitBreaker.HALF_OPEN
                self._probes = 0
                self.stats.incr("half_opens")
            else:
                self.stats.incr("rejections")
                return False
        if self.state == CircuitBreaker.HALF_OPEN:
            if self._probes >= self.half_open_max:
                self.stats.incr("rejections")
                return False
            self._probes += 1
        return True

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` instead of returning False."""
        if not self.allow():
            raise CircuitOpenError(
                f"{self.name} open; retry after {self.retry_after:g}s")

    def record_success(self) -> None:
        if self.state == CircuitBreaker.HALF_OPEN:
            self.stats.incr("closes")
        self.state = CircuitBreaker.CLOSED
        self._failures = 0

    def record_failure(self) -> None:
        if self.state == CircuitBreaker.HALF_OPEN:
            self._trip()
            return
        self._failures += 1
        if self.state == CircuitBreaker.CLOSED and \
                self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = CircuitBreaker.OPEN
        self._opened_at = self.sim.now
        self._failures = 0
        self.stats.incr("trips")
