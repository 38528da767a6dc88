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

from typing import Optional

from ..middleware.base import MiddlewareSession, RequestTimeout
from ..security.wtls import SecurityError
from ..sim import Counter, Event
from .retry import RetryPolicy

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
    members are ejected, re-admitted or canaried.  Either way the
    route that last answered is sticky by session identity, so a
    changing candidate list never re-targets a different member.

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
        # The route that last answered; a fixed chain starts on its
        # first route, a provider on whatever it ranks first.
        self._sticky = self.routes[0] if self.routes else None

    @property
    def active_route(self) -> Optional[MiddlewareSession]:
        return self._sticky

    def _route_list(self) -> list:
        if self._provider is None:
            return self.routes
        routes = list(self._provider())
        if not routes:
            raise ConnectionError("no middleware route available")
        return routes

    def _start_index(self, routes: list) -> int:
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
                session = routes[(start + step) % len(routes)]
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
                if session is not self._sticky:
                    if self._sticky is not None:
                        self.stats.incr("route_switches")
                    self._sticky = session
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


class ResilienceConfig:
    """Knobs :class:`repro.core.MCSystemBuilder` wires into a system.

    One config block switches on the whole policy set: per-request
    timeouts + engine retry, gateway circuit breakers, web-server
    admission control, a standby gateway and (optionally) direct-HTML
    fallback.  Only what real callers set differently lives here
    (DESIGN.md §9 lists who sets what); the breaker, origin-timeout,
    shedding and standby-port values are constants at the builder's
    one call site, and fleet health checks and canary judgement keep
    their own classes' defaults.
    """

    def __init__(self, request_timeout: float = 5.0,
                 retry: RetryPolicy | None = None,
                 standby_gateway: bool = True, direct_fallback: bool = True,
                 batching: bool = False, fleet_size: int = 0,
                 canary: Optional[dict] = None):
        # Per-attempt request deadline (device -> middleware -> back); the
        # builder also applies it as ``retry.attempt_timeout``.
        self.request_timeout = request_timeout
        # Engine retry template; the builder adds the deadline and the
        # seeded ``retry-jitter`` stream.
        self.retry = (RetryPolicy(max_delay=4.0, jitter=0.2) if retry is None
                      else retry)
        # Graceful degradation (single-gateway topology only: a fleet's
        # ring supplies its own failover candidates).
        self.standby_gateway = standby_gateway
        self.direct_fallback = direct_fallback
        # Gateway-side batching + admission control at the constants in
        # ``repro.middleware.base`` (DESIGN.md §13).  Off by default: the
        # chaos suite exercises failover without capacity shaping; the load
        # benchmark turns it on via ``repro.perf.loadgen.bench_resilience``.
        self.batching = batching
        # Gateway fleet (DESIGN.md §14): 0 keeps the classic single-gateway
        # topology; >= 1 builds a GatewayFleet behind a consistent-hash
        # LoadBalancer.  fleet_size=1 is the byte-identical degenerate case
        # (no monitors spawn).
        self.fleet_size = fleet_size
        # Canary rollout: CanaryController keyword arguments (fraction,
        # deploy_at, handicap, window, ...); None deploys no canary.
        self.canary = canary
