"""Retry with exponential backoff and seeded jitter.

The policy object is pure bookkeeping: the
:class:`~repro.core.transaction.TransactionContext` drives the actual
waiting (``yield sim.timeout(policy.backoff(attempt))``), so backoff
delays advance the simulation clock like any other work and never
touch the wall clock.  Jitter draws from a named
:class:`~repro.sim.RandomStream`, keeping retried runs byte-identical
for a given root seed.
"""

from __future__ import annotations

from typing import Optional

from ..sim import RandomStream

__all__ = ["RetryPolicy", "RETRYABLE_STATUSES"]

# Transient server-side statuses worth retrying: bad gateway, overload
# shedding (503 + Retry-After), and origin timeout.
RETRYABLE_STATUSES = frozenset({502, 503, 504})


class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**(attempt-1)``.

    ``jitter`` widens each delay by a uniform factor in
    ``[1-jitter, 1+jitter]`` drawn from ``stream`` (no stream = no
    jitter).  ``attempt_timeout`` is the per-attempt request deadline
    handed to the middleware session when the caller sets none.
    """

    def __init__(self, max_attempts: int = 4, base_delay: float = 0.25,
                 multiplier: float = 2.0, max_delay: float = 10.0,
                 jitter: float = 0.1, attempt_timeout: Optional[float] = None,
                 stream: Optional[RandomStream] = None):
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.attempt_timeout = attempt_timeout
        self.stream = stream

    def backoff(self, attempt: int) -> float:
        """Delay before the attempt *after* ``attempt`` (1-based)."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** max(0, attempt - 1))
        if self.stream is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * self.stream.random() - 1.0)
        return delay

    def retryable_status(self, status: int) -> bool:
        return status in RETRYABLE_STATUSES
