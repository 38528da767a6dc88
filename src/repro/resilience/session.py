"""Graceful degradation: failover across middleware routes.

A :class:`ResilientSession` presents the standard
:class:`~repro.middleware.base.MiddlewareSession` interface over an
ordered list of real sessions — typically ``[primary gateway session,
standby gateway session, direct-HTML fallback]``.  Transport-level
failures (:class:`~repro.middleware.base.RequestTimeout`,
``ConnectionError``, WTLS :class:`~repro.security.wtls.SecurityError`)
advance to the next route within the same request; the route that
answers becomes sticky for subsequent requests, so a crashed gateway
costs one failover rather than one per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..middleware.base import MiddlewareSession, RequestTimeout
from ..security.wtls import SecurityError
from ..sim import Counter, Event

__all__ = ["ResilienceConfig", "ResilientSession", "FAILOVER_ERRORS"]

# Failures that mean "this route is unreachable", not "the origin said
# no": only these trigger failover (5xx statuses are the retry
# policy's business — a different gateway reaches the same origin).
FAILOVER_ERRORS = (RequestTimeout, ConnectionError, SecurityError)


class ResilientSession(MiddlewareSession):
    """Sticky-failover composite over ordered middleware sessions.

    ``routes`` is either a static ordered list of sessions (the classic
    primary -> standby -> direct chain) or a zero-argument callable
    returning the *current* ordered candidate list — which is how a
    fleet load balancer supplies ring-derived alternates that change as
    members are ejected, re-admitted, autoscaled or canaried.  With a
    static list the behaviour is bit-for-bit the pre-fleet one.

    ``observer(session, ok, elapsed)``, when given, is called once per
    route attempt with the per-attempt virtual latency — the balancer
    uses it to feed per-member SLO windows.  ``sim`` is only required
    for provider-backed sessions (a static list carries its own).
    """

    middleware_name = "resilient"

    def __init__(self, routes, timeout: Optional[float] = None,
                 observer=None, sim=None):
        if callable(routes):
            self._provider = routes
            self.routes = None
            if sim is None:
                raise ValueError(
                    "a provider-backed ResilientSession needs sim=")
            self.sim = sim
        else:
            if not routes:
                raise ValueError(
                    "ResilientSession needs at least one route")
            self._provider = None
            self.routes = list(routes)
            self.sim = sim if sim is not None else self.routes[0].sim
        # Default per-attempt deadline applied when the caller sets
        # none; without any deadline a dead route can only fail over
        # once its transport gives up.
        self.timeout = timeout
        self.observer = observer
        self.stats = Counter()
        self._active = 0
        # Provider mode tracks stickiness by session identity: the
        # candidate list changes under churn, so a positional index
        # would silently re-target a different member.
        self._sticky = None

    @property
    def active_route(self) -> Optional[MiddlewareSession]:
        if self._provider is not None:
            return self._sticky
        return self.routes[self._active]

    def _route_list(self) -> list:
        if self._provider is not None:
            routes = list(self._provider())
            if not routes:
                raise ConnectionError("no middleware route available")
            return routes
        return self.routes

    def _start_index(self, routes: list) -> int:
        if self._provider is None:
            return self._active
        sticky = self._sticky
        if sticky is not None:
            for index, session in enumerate(routes):
                if session is sticky:
                    return index
        return 0

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        return self._call("get", url, None, trace, timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        return self._call("post", url, form, trace, timeout)

    def _call(self, method: str, url: str, form, trace,
              timeout: Optional[float]) -> Event:
        result = self.sim.event()
        deadline = timeout if timeout is not None else self.timeout

        def attempt_routes(env):
            try:
                routes = self._route_list()
            except ConnectionError as exc:
                self.stats.incr("exhausted")
                result.fail(exc)
                return
            start = self._start_index(routes)
            last_exc = None
            for step in range(len(routes)):
                if self._provider is None:
                    # Read _active fresh each attempt: a concurrent
                    # in-flight call may have advanced it, and the
                    # pre-fleet behaviour (which these stats tests pin
                    # bit-for-bit) did exactly this.
                    index = (self._active + step) % len(routes)
                else:
                    index = (start + step) % len(routes)
                session = routes[index]
                began = env.now
                try:
                    if method == "get":
                        response = yield session.get(url, trace=trace,
                                                     timeout=deadline)
                    else:
                        response = yield session.post(url, form, trace=trace,
                                                      timeout=deadline)
                except FAILOVER_ERRORS as exc:
                    last_exc = exc
                    self.stats.incr("route_failures")
                    if self.observer is not None:
                        self.observer(session, False, env.now - began)
                    if step < len(routes) - 1:
                        self.stats.incr("failovers")
                    continue
                if self._provider is not None:
                    if session is not self._sticky:
                        if self._sticky is not None:
                            self.stats.incr("route_switches")
                        self._sticky = session
                elif index != self._active:
                    self._active = index
                    self.stats.incr("route_switches")
                self.stats.incr("requests")
                if self.observer is not None:
                    self.observer(session, True, env.now - began)
                result.succeed(response)
                return
            self.stats.incr("exhausted")
            result.fail(last_exc if last_exc is not None
                        else ConnectionError("no middleware route available"))

        self.sim.spawn(attempt_routes(self.sim), name="resilient-call")
        return result

    def close(self) -> None:
        if self._provider is not None:
            # Balancer-backed sessions do not own their routes: member
            # sessions are shared infrastructure whose lifecycle the
            # fleet manages (and calling the provider here could
            # lazily create sessions just to close them).
            return
        for session in self.routes:
            session.close()


@dataclass
class ResilienceConfig:
    """Knobs :class:`repro.core.MCSystemBuilder` wires into a system.

    One config block switches on the whole policy set: per-request
    timeouts + engine retry, gateway circuit breakers, web-server
    admission control, a standby gateway and (optionally) direct-HTML
    fallback.  Every default is deliberately aggressive enough for
    chaos benchmarks to show recovery inside a few sim-minutes.
    """

    # Per-attempt request deadline (device -> middleware -> back).
    request_timeout: float = 5.0
    # Engine retry policy.
    retry_attempts: int = 4
    retry_base_delay: float = 0.25
    retry_multiplier: float = 2.0
    retry_max_delay: float = 4.0
    retry_jitter: float = 0.2
    # Gateway -> origin circuit breaker: consecutive failures that open
    # it (0 = off).
    breaker_threshold: int = 4
    breaker_recovery_time: float = 8.0
    breaker_half_open_max: int = 2
    # Gateway -> origin HTTP timeout (shorter than the request
    # deadline so the breaker learns about dead origins quickly).
    origin_timeout: float = 3.0
    # Web-server admission control: extra queued requests tolerated on
    # top of the busy worker pool before shedding with 503.  The shed
    # Retry-After scales with queue depth and is spread by seeded
    # jitter so shed clients do not re-stampede in lockstep.
    shed_backlog: int = 16
    shed_retry_after: float = 1.0
    shed_jitter: float = 0.2
    # Graceful degradation.
    standby_gateway: bool = True
    direct_fallback: bool = True
    # The standby gateway listens this many ports above the primary
    # (its endpoint is derived from the primary's actual port and
    # published in the name registry, never hardcoded).
    standby_port_offset: int = 10
    # Gateway-side batching + admission control (DESIGN.md §13).  Off
    # by default: the chaos suite exercises failover without capacity
    # shaping; the load benchmark turns it on via
    # ``repro.perf.loadgen.bench_resilience``.
    gateway_batching: bool = False
    batch_window: float = 0.05
    batch_max: int = 8
    batch_item_cost: float = 0.0
    admission_watermark: int = 0
    admission_retry_floor: float = 0.25
    admission_jitter: float = 0.2
    # Reservation over-spacing: >1 leaves service slots free between
    # returning shed clients for fresh arrivals.
    admission_reserve_factor: float = 1.0
    # RAN backpressure: shed new work at the gateway while this many
    # transmitters are queued for the cell's shared airtime (0 = off).
    air_pressure_threshold: int = 0
    # --- Gateway fleet (DESIGN.md §14) ---------------------------------
    # 0 keeps the classic single-gateway topology; >= 1 builds a
    # GatewayFleet behind a consistent-hash LoadBalancer.  fleet_size=1
    # is the byte-identical degenerate case (no monitors spawn).
    fleet_size: int = 0
    # Member i listens at primary_port + i * stride (stride leaves room
    # for the WTLS companion port and the legacy standby offset).
    fleet_port_stride: int = 20
    fleet_virtual_nodes: int = 64
    # Active health checks (per-member probe process, CircuitBreaker-
    # style ejection with half-open re-admission).
    health_interval: float = 2.0
    health_timeout: float = 1.5
    unhealthy_threshold: int = 3
    recovery_threshold: int = 2
    # Queue-depth autoscaling over the live batcher-depth gauges.
    autoscale: bool = False
    autoscale_high_watermark: float = 8.0
    autoscale_low_watermark: float = 1.0
    autoscale_min_members: int = 1
    autoscale_max_members: int = 8
    autoscale_cooldown: float = 30.0
    autoscale_interval: float = 5.0
    # Canary rollout: deploy a v2 variant to ceil(fraction * N) ring
    # slots at deploy_at, compare SLO windows, auto-promote/rollback.
    canary_fraction: float = 0.0
    canary_deploy_at: float = 0.0
    # Deliberate per-request service-time penalty on the v2 variant —
    # the chaos canary-regression scenario uses it to plant an SLO
    # regression the controller must catch.
    canary_handicap: float = 0.0
    canary_window: float = 20.0
    canary_min_samples: int = 5
    canary_p95_ratio: float = 1.5
    canary_success_delta: float = 0.1
    canary_violations: int = 2
    canary_healthy_windows: int = 3

    def batch_config(self):
        """BatchConfig for one gateway, or None when batching is off."""
        if not self.gateway_batching:
            return None
        from ..middleware.base import BatchConfig
        return BatchConfig(
            window=self.batch_window,
            max_batch=self.batch_max,
            per_item_cost=self.batch_item_cost,
            watermark=self.admission_watermark,
            retry_floor=self.admission_retry_floor,
            jitter=self.admission_jitter,
            reserve_factor=self.admission_reserve_factor,
            pressure_threshold=self.air_pressure_threshold,
        )

    def retry_policy(self, stream=None):
        from .retry import RetryPolicy
        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            multiplier=self.retry_multiplier,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
            attempt_timeout=self.request_timeout,
            stream=stream,
        )

    def breaker(self, sim, name: str = "breaker"):
        """A fresh gateway -> origin breaker, or None when it is off."""
        if self.breaker_threshold == 0:
            return None
        from .breaker import CircuitBreaker
        return CircuitBreaker(
            sim,
            failure_threshold=self.breaker_threshold,
            recovery_time=self.breaker_recovery_time,
            half_open_max=self.breaker_half_open_max,
            name=name,
        )
