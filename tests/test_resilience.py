"""Unit tests for repro.resilience: retry, breaker, shedding, failover."""

import pytest

from repro.core import MCSystemBuilder, TransactionEngine
from repro.core.builder import SHEDDING
from repro.faults.chaos import run_chaos
from repro.fleet import health as fleet_health
from repro.middleware import base as middleware_base
from repro.middleware.base import MiddlewareResponse, MiddlewareSession
from repro.net import Network, Subnet
from repro.perf import bench_resilience, run_bench
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RequestTimeout,
    ResilienceConfig,
    ResilientSession,
    RetryPolicy,
)
from repro.sim import SeedBank, Simulator
from repro.web import WebServer
from repro.web.http import HTTPResponse
from repro.web.client import HTTPClient


# ------------------------------------------------------------- RetryPolicy
def test_retry_backoff_exponential_and_capped():
    policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0,
                         max_delay=3.0, jitter=0.0)
    assert policy.backoff(1) == 0.5
    assert policy.backoff(2) == 1.0
    assert policy.backoff(3) == 2.0
    assert policy.backoff(4) == 3.0  # capped
    assert policy.backoff(5) == 3.0


def test_retry_jitter_is_seeded_and_bounded():
    a = RetryPolicy(jitter=0.2, stream=SeedBank(1).stream("j"))
    b = RetryPolicy(jitter=0.2, stream=SeedBank(1).stream("j"))
    delays_a = [a.backoff(n) for n in range(1, 6)]
    delays_b = [b.backoff(n) for n in range(1, 6)]
    assert delays_a == delays_b  # same seed, same jitter
    for n, delay in enumerate(delays_a, start=1):
        base = min(a.max_delay, a.base_delay * a.multiplier ** (n - 1))
        assert base * 0.8 <= delay <= base * 1.2


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_retryable_statuses():
    policy = RetryPolicy()
    assert policy.retryable_status(503)
    assert policy.retryable_status(502)
    assert policy.retryable_status(504)
    assert not policy.retryable_status(404)
    assert not policy.retryable_status(200)


# ------------------------------------------------------------- breaker
def test_breaker_trips_after_threshold_and_recovers():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=3, recovery_time=5.0)
    log = []

    def drive(env):
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        log.append(("state-after-failures", breaker.state))
        assert not breaker.allow()          # open: rejected
        with pytest.raises(CircuitOpenError):
            breaker.check()
        assert breaker.retry_after > 0
        yield env.timeout(5.0)
        assert breaker.allow()              # half-open probe admitted
        log.append(("state-half-open", breaker.state))
        breaker.record_success()
        log.append(("state-closed", breaker.state))
        assert breaker.allow()

    sim.spawn(drive(sim))
    sim.run(until=10)
    assert ("state-after-failures", CircuitBreaker.OPEN) in log
    assert ("state-half-open", CircuitBreaker.HALF_OPEN) in log
    assert ("state-closed", CircuitBreaker.CLOSED) in log
    assert breaker.stats.get("trips") == 1
    assert breaker.stats.get("rejections") >= 1
    assert breaker.stats.get("closes") == 1


def test_breaker_half_open_failure_reopens():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=1, recovery_time=2.0,
                             half_open_max=1)

    def drive(env):
        breaker.record_failure()            # trips immediately
        assert breaker.state == CircuitBreaker.OPEN
        yield env.timeout(2.0)
        assert breaker.allow()              # half-open probe
        assert not breaker.allow()          # probe budget spent
        breaker.record_failure()            # probe failed
        assert breaker.state == CircuitBreaker.OPEN

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert breaker.stats.get("trips") == 2


# ------------------------------------------------------------- shedding
def _web_pair(sim, workers=1):
    net = Network(sim)
    host = net.add_node("host")
    client_node = net.add_node("client")
    net.connect(host, client_node, Subnet.parse("10.0.0.0/24"), delay=0.001)
    net.build_routes()
    server = WebServer(host, workers=workers)
    return server, HTTPClient(client_node), host


def test_load_shedding_returns_503_with_retry_after():
    sim = Simulator()
    server, client, host = _web_pair(sim, workers=1)
    server.enable_load_shedding(backlog=0, retry_after=2.5)

    def slow(ctx):
        yield sim.timeout(0.5)
        return HTTPResponse.ok("done", "text/plain")

    server.mount("/slow", slow)
    statuses = []

    def fetch(env):
        response = yield client.get(host.primary_address, "/slow")
        statuses.append((response.status,
                         response.headers.get("retry-after")))

    for _ in range(4):
        sim.spawn(fetch(sim))
    sim.run(until=30)
    assert len(statuses) == 4
    shed = [s for s in statuses if s[0] == 503]
    served = [s for s in statuses if s[0] == 200]
    assert shed and served, statuses
    assert all(retry == "2.5" for _, retry in shed)
    assert server.stats.get("shed_requests") == len(shed)


def test_no_shedding_by_default():
    sim = Simulator()
    server, client, host = _web_pair(sim, workers=1)

    def slow(ctx):
        yield sim.timeout(0.5)
        return HTTPResponse.ok("done", "text/plain")

    server.mount("/slow", slow)
    statuses = []

    def fetch(env):
        response = yield client.get(host.primary_address, "/slow")
        statuses.append(response.status)

    for _ in range(4):
        sim.spawn(fetch(sim))
    sim.run(until=60)
    assert statuses == [200, 200, 200, 200]


# ------------------------------------------------------------- failover
class _ScriptedSession(MiddlewareSession):
    """Session whose get() follows a script of 'ok' / exception items."""

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.calls = 0

    def get(self, url, trace=None, timeout=None):
        self.calls += 1
        event = self.sim.event()
        action = self.script.pop(0) if self.script else "ok"
        if action == "ok":
            event.succeed(MiddlewareResponse(200, "text/plain", b"ok"))
        else:
            event.fail(action)
        return event

    def post(self, url, form, trace=None, timeout=None):
        return self.get(url, trace=trace, timeout=timeout)

    def close(self):
        pass


def test_resilient_session_fails_over_and_sticks():
    sim = Simulator()
    primary = _ScriptedSession(sim, [ConnectionError("down"),
                                     ConnectionError("still down")])
    standby = _ScriptedSession(sim, ["ok", "ok", "ok"])
    session = ResilientSession([primary, standby])
    responses = []

    def drive(env):
        first = yield session.get("http://h/x")
        second = yield session.get("http://h/x")
        responses.extend([first, second])

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert [r.status for r in responses] == [200, 200]
    assert session.stats.get("failovers") == 1
    assert session.stats.get("route_switches") == 1
    # Sticky: the second request went straight to the standby.
    assert primary.calls == 1
    assert standby.calls == 2
    assert session.active_route is standby


def test_resilient_session_exhaustion_fails_with_last_error():
    sim = Simulator()
    a = _ScriptedSession(sim, [ConnectionError("a down")])
    b = _ScriptedSession(sim, [RequestTimeout("b timed out")])
    session = ResilientSession([a, b])
    captured = {}

    def drive(env):
        try:
            yield session.get("http://h/x")
        except (ConnectionError, RequestTimeout) as exc:
            captured["error"] = exc

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert isinstance(captured["error"], RequestTimeout)
    assert session.stats.get("exhausted") == 1


# ------------------------------------------------------ engine integration
def test_request_timeout_produces_clear_transaction_error():
    from repro.apps import CommerceApp

    system = MCSystemBuilder(seed=5).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    # Deadline far below the network RTT: every attempt must time out,
    # and without a retry policy the flow fails immediately.
    engine = TransactionEngine(system, request_timeout=0.0001)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=120)
    record = done.value
    assert not record.ok
    assert "Timeout" in record.error, record.error


def test_engine_retry_recovers_from_transient_503(monkeypatch):
    """A scripted session that sheds once then succeeds: the retry
    policy absorbs the 503 and the flow completes."""
    sim = Simulator()
    session = _ScriptedSession(sim, ["ok"])
    session.script = []  # replaced below with status-script behaviour

    class SheddingSession(_ScriptedSession):
        def get(self, url, trace=None, timeout=None):
            self.calls += 1
            event = self.sim.event()
            if self.calls == 1:
                event.succeed(MiddlewareResponse(
                    503, "text/plain", b"overloaded",
                    meta={"retry_after": 0.5}))
            else:
                event.succeed(MiddlewareResponse(200, "text/plain", b"ok"))
            return event

    shedding = SheddingSession(sim, [])

    class FakeSystem:
        def __init__(self):
            self.sim = sim

        def url(self, path):
            return f"http://host{path}"

    class FakeHandle:
        def __init__(self):
            self.session = shedding
            self.station = None
            self.node = None

    engine = TransactionEngine(
        FakeSystem(),
        retry=RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0))

    def flow(ctx):
        response = yield from ctx.get("/x")
        return response.status

    done = engine.run_flow(FakeHandle(), flow)
    sim.run(until=30)
    record = done.value
    assert record.ok
    assert record.result == 200
    assert record.retries == 1
    assert shedding.calls == 2
    # The Retry-After hint (0.5) dominated the base backoff (0.1).
    assert record.finished_at >= 0.5


def test_builder_without_resilience_has_no_policies():
    system = MCSystemBuilder(seed=2).build()
    assert system.resilience is None
    assert system.retry_policy is None
    assert system.standby_gateway is None
    assert system.gateway is not None
    handle = system.add_station("Toshiba E740")
    assert not isinstance(handle.session, ResilientSession)


def test_builder_with_resilience_wires_everything():
    config = ResilienceConfig()
    system = MCSystemBuilder(seed=2, resilience=config).build()
    assert system.resilience is config
    assert system.retry_policy is not None
    assert system.standby_gateway is not None
    assert system.gateway.breaker is not None
    assert system.host.web_server._shed_backlog == SHEDDING["backlog"]
    handle = system.add_station("Toshiba E740")
    assert isinstance(handle.session, ResilientSession)
    # primary gateway session, standby session, direct fallback
    assert len(handle.session.routes) == 3


# ------------------------------------------- effective settings, pinned
class _Built(Exception):
    """Raised from ``post_build`` to stop a run right after its build."""

    def __init__(self, system):
        super().__init__("built")
        self.system = system


def _built(run, **kwargs):
    """The system a real caller builds, captured before the clock starts."""
    def stop(system, engine):
        raise _Built(system)

    with pytest.raises(_Built) as caught:
        run(post_build=stop, **kwargs)
    return caught.value.system


_DEFAULT_RETRY = dict(max_attempts=4, base_delay=0.25, multiplier=2.0,
                      max_delay=4.0, jitter=0.2, attempt_timeout=5.0)
_BENCH_RETRY = dict(max_attempts=5, base_delay=0.5, multiplier=2.0,
                    max_delay=8.0, jitter=0.3, attempt_timeout=20.0)
# The batching and health-check values are module constants; these pin
# them where the old per-caller configs did.
_BATCH_CONSTANTS = dict(BATCH_WINDOW=0.16, BATCH_MAX=3, WATERMARK=12,
                        RETRY_FLOOR=1.0, SHED_JITTER=0.2,
                        PER_ITEM_COST=0.001, RESERVE_FACTOR=5.0,
                        PRESSURE_THRESHOLD=12)
_HEALTH_CONSTANTS = dict(PROBE_INTERVAL=2.0, PROBE_TIMEOUT=1.5)
_CANARY = dict(fraction=0.5, deploy_at=60.0, handicap=3.0, window=40.0,
               min_samples=3, p95_ratio=1.5, success_delta=0.1,
               violations=2, healthy_windows=3)

# (id, caller, kwargs, retry, standby, batching, fleet size, canary,
#  balancer sample window)
_EFFECTIVE = [
    ("chaos-default", run_chaos, dict(scenario="storm"),
     _DEFAULT_RETRY, True, False, 0, None, None),
    ("bench", run_bench, {},
     _BENCH_RETRY, False, True, 0, None, None),
    ("bench-fleet3", run_bench, dict(fleet=3),
     _BENCH_RETRY, False, True, 3, None, 120.0),
    ("canary-regression", run_chaos, dict(scenario="canary-regression"),
     _DEFAULT_RETRY, False, False, 4, _CANARY, 160.0),
]


@pytest.mark.parametrize(
    "run,kwargs,retry,standby,batching,fleet_size,canary,sample_window",
    [case[1:] for case in _EFFECTIVE], ids=[case[0] for case in _EFFECTIVE])
def test_effective_resilience_settings_are_pinned(
        run, kwargs, retry, standby, batching, fleet_size, canary,
        sample_window):
    """What each real caller's config turns into on the built objects."""
    system = _built(run, **kwargs)
    if fleet_size:
        gateways = system.fleet.gateways()
        assert len(gateways) == fleet_size
    else:
        gateways = [system.gateway]
    if standby:
        assert system.standby_gateway.port == system.gateway.port + 10
        gateways.append(system.standby_gateway)
    else:
        assert system.standby_gateway is None
    for gateway in gateways:
        breaker = gateway.breaker
        assert (breaker.failure_threshold, breaker.recovery_time,
                breaker.half_open_max) == (4, 8.0, 2)
        assert gateway.origin_timeout == 3.0
        assert (gateway.batcher is not None) == batching
    if batching:
        assert {name: getattr(middleware_base, name)
                for name in _BATCH_CONSTANTS} == _BATCH_CONSTANTS

    web = system.host.web_server
    assert (web._shed_backlog, web._shed_retry_after,
            web._shed_jitter) == (16, 1.0, 0.2)
    assert web._shed_stream is system.seeds.stream("shed-jitter")

    policy = system.retry_policy
    assert vars(policy) == dict(
        retry, stream=system.seeds.stream("retry-jitter"))
    assert system.request_timeout == retry["attempt_timeout"]
    assert all(handle.session.timeout == retry["attempt_timeout"]
               for handle in system.stations)

    if not fleet_size:
        assert system.fleet is None and system.balancer is None
        return
    assert system.fleet.port_stride == 20
    assert system.fleet.ring.virtual_nodes == 64
    health = system.health_monitor
    assert (health.unhealthy_threshold,
            health.recovery_threshold) == (3, 2)
    assert {name: getattr(fleet_health, name)
            for name in _HEALTH_CONSTANTS} == _HEALTH_CONSTANTS
    assert system.balancer.sample_window == sample_window
    if canary is None:
        assert system.canary is None
    else:
        assert {name: getattr(system.canary, name)
                for name in canary} == canary


def test_builds_leave_the_callers_resilience_config_unmodified():
    """A fleet run and the builder's retry policy work on copies: the
    config a caller passes, and the retry template in it, stay as they
    were."""
    config = bench_resilience()
    before, template = dict(vars(config)), dict(vars(config.retry))
    system = _built(run_bench, resilience=config, fleet=4)
    assert system.resilience.fleet_size == 4
    assert vars(config) == before and vars(config.retry) == template
    assert system.retry_policy is not config.retry

    system = _built(run_chaos, scenario="canary-regression", fleet=3)
    res = system.resilience
    assert res.fleet_size == 3 and res.canary is not None
    assert (res.retry.attempt_timeout, res.retry.stream) == (None, None)
    assert system.retry_policy.stream is system.seeds.stream("retry-jitter")


def test_every_resilience_knob_is_varied_by_a_real_caller():
    """A ResilienceConfig field no real caller sets differently is a
    constant in disguise: it belongs at its one point of use."""
    configs = [_built(run_chaos, scenario="storm").resilience,
               _built(run_bench).resilience,
               _built(run_bench, fleet=4).resilience,
               _built(run_chaos, scenario="canary-regression").resilience]
    for name in vars(ResilienceConfig()):
        # A RetryPolicy compares by its fields, not by identity.
        values = {repr(vars(value)) if isinstance(value, RetryPolicy)
                  else repr(value)
                  for value in (getattr(config, name) for config in configs)}
        assert len(values) >= 2, name
