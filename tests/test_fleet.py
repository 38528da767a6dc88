"""Tests for repro.fleet: ring, health FSM, canary, fleet.

The pure cores (ring arithmetic, :meth:`HealthMonitor.record_probe`,
:meth:`CanaryController.evaluate`) are driven directly; the
integration surface (fleet-of-1 transparency, member-outage recovery,
canary rollback under a planted regression) is exercised through the
real chaos/bench runners.
"""

import json

import pytest

from repro.fleet import (
    CanaryController,
    GatewayFleet,
    HashRing,
    HealthMonitor,
)
from repro.middleware.base import MiddlewareResponse, MiddlewareSession
from repro.resilience import RequestTimeout, ResilientSession
from repro.sim import Simulator


# --------------------------------------------------------------- hash ring
def test_ring_affinity_is_stable():
    ring = HashRing()
    for name in ("gw-0", "gw-1", "gw-2", "gw-3"):
        ring.add(name)
    keys = [f"station-{i}" for i in range(200)]
    first = {key: ring.owner(key) for key in keys}
    second = {key: ring.owner(key) for key in keys}
    assert first == second  # same membership, same mapping


def test_ring_spreads_keys_over_members():
    ring = HashRing()
    members = ["gw-0", "gw-1", "gw-2", "gw-3"]
    for name in members:
        ring.add(name)
    owners = [ring.owner(f"station-{i}") for i in range(400)]
    for name in members:
        share = owners.count(name) / len(owners)
        # 64 virtual nodes keep each member within a loose band of the
        # fair 1/4 share.
        assert 0.10 < share < 0.45, (name, share)


def test_ring_removal_remaps_only_the_removed_members_keys():
    ring = HashRing()
    members = ["gw-0", "gw-1", "gw-2", "gw-3"]
    for name in members:
        ring.add(name)
    keys = [f"station-{i}" for i in range(300)]
    before = {key: ring.owner(key) for key in keys}
    ring.remove("gw-1")
    after = {key: ring.owner(key) for key in keys}
    moved = [key for key in keys if before[key] != after[key]]
    # Exactly the removed member's keys remap — nobody else moves —
    # so churn is bounded well under the 2/N the issue allows.
    assert all(before[key] == "gw-1" for key in moved)
    assert all(after[key] != "gw-1" for key in keys)
    assert len(moved) / len(keys) <= 2 / len(members)
    # Re-adding restores the original mapping bit for bit.
    ring.add("gw-1")
    assert {key: ring.owner(key) for key in keys} == before


def test_ring_candidates_are_distinct_and_start_at_owner():
    ring = HashRing()
    for name in ("gw-0", "gw-1", "gw-2"):
        ring.add(name)
    names = ring.candidates("station-7")
    assert names[0] == ring.owner("station-7")
    assert sorted(names) == ["gw-0", "gw-1", "gw-2"]
    assert ring.candidates("station-7", count=2) == names[:2]


def test_ring_validates_and_reports_membership():
    with pytest.raises(ValueError):
        HashRing(virtual_nodes=0)
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.owner("anything")
    ring.add("gw-0")
    assert "gw-0" in ring and len(ring) == 1
    ring.remove("gw-9")  # unknown member: idempotent no-op
    assert ring.members() == ["gw-0"]


# ------------------------------------------------------------ fleet + pool
class _FakeGateway:
    def __init__(self):
        self.is_down = False

    def crash(self):
        self.is_down = True

    def restart(self):
        self.is_down = False


def _make_fleet(sim, members=3, **kwargs):
    def make_gateway(index, port, version, handicap, cell_index):
        return _FakeGateway(), lambda station: None

    fleet = GatewayFleet(sim, make_gateway, base_port=9200, **kwargs)
    for _ in range(members):
        fleet.add_member()
    return fleet


def test_fleet_ports_follow_the_stride_scheme():
    fleet = _make_fleet(Simulator(), members=3, port_stride=20)
    assert [m.port for m in fleet.members.values()] == [9200, 9220, 9240]
    assert [m.name for m in fleet.members.values()] == \
        ["gw-0", "gw-1", "gw-2"]


def test_fleet_retirement_is_graceful_and_idempotent():
    fleet = _make_fleet(Simulator(), members=3)
    member = fleet.retire_member("gw-1", reason="scale-down")
    assert member.state == "retired"
    assert member.retire_reason == "scale-down"
    assert "gw-1" not in fleet.ring
    # The gateway keeps running so in-flight requests can drain.
    assert not member.gateway.is_down
    again = fleet.retire_member("gw-1", reason="other")
    assert again.retire_reason == "scale-down"  # first reason wins
    assert len(fleet.serving_members()) == 2


# ---------------------------------------------------------- health monitor
def test_health_fsm_ejects_after_threshold_and_readmits():
    sim = Simulator()
    fleet = _make_fleet(sim, members=3)
    monitor = HealthMonitor(sim, fleet, unhealthy_threshold=3,
                            recovery_threshold=2)
    member = fleet.member("gw-1")

    monitor.record_probe(member, False)
    monitor.record_probe(member, False)
    assert member.health == "healthy"  # below threshold
    monitor.record_probe(member, True)  # success resets the count
    monitor.record_probe(member, False)
    monitor.record_probe(member, False)
    assert member.health == "healthy"
    monitor.record_probe(member, False)
    assert member.health == "ejected"
    assert "gw-1" not in fleet.ring

    # Half-open: probes continue; recovery needs consecutive successes.
    monitor.record_probe(member, True)
    assert member.health == "ejected"
    monitor.record_probe(member, False)  # streak broken
    monitor.record_probe(member, True)
    monitor.record_probe(member, True)
    assert member.health == "healthy"
    assert "gw-1" in fleet.ring
    assert monitor.stats.get("ejections") == 1
    assert monitor.stats.get("readmissions") == 1


def test_health_readmission_respects_retirement():
    sim = Simulator()
    fleet = _make_fleet(sim, members=2)
    monitor = HealthMonitor(sim, fleet, unhealthy_threshold=1,
                            recovery_threshold=1)
    member = fleet.member("gw-1")
    monitor.record_probe(member, False)
    assert member.health == "ejected"
    fleet.retire_member("gw-1", reason="canary-replace")
    monitor.record_probe(member, True)
    # Recovered but retired: it must not rejoin the ring.
    assert member.health == "healthy"
    assert "gw-1" not in fleet.ring


# ------------------------------------------------------------------ canary
def _controller(**kwargs):
    sim = Simulator()
    fleet = _make_fleet(sim, members=4)
    defaults = dict(fraction=0.25, min_samples=5, p95_ratio=1.5,
                    success_delta=0.1, violations=2, healthy_windows=3)
    defaults.update(kwargs)
    return CanaryController(sim, fleet, balancer=None, **defaults)


def _window(count, successes, latency):
    return {"count": count, "successes": successes,
            "latencies": [latency] * successes}


def test_canary_evaluate_rolls_exactly_at_the_slo_thresholds():
    canary = _controller()
    baseline = _window(20, 20, 1.0)  # p95 = 1.0, success 1.0
    # p95 exactly at ratio * baseline is healthy; just past it is not.
    assert canary.evaluate(_window(10, 10, 1.5), baseline) == "healthy"
    assert canary.evaluate(_window(10, 10, 1.5001), baseline) == \
        "violation"
    # Success exactly delta below baseline is healthy; further is not.
    assert canary.evaluate(_window(10, 9, 1.0), baseline) == "healthy"
    assert canary.evaluate(_window(10, 8, 1.0), baseline) == "violation"
    # Too few samples on either side abstains.
    assert canary.evaluate(_window(4, 4, 9.0), baseline) == \
        "insufficient"
    assert canary.evaluate(_window(10, 10, 9.0), _window(3, 3, 1.0)) == \
        "insufficient"


def test_canary_deploy_replaces_fraction_and_rollback_restores():
    canary = _controller(fraction=0.5)
    fleet = canary.fleet
    canary.deploy()
    assert canary.state == CanaryController.CANARY
    v2 = [m for m in fleet.serving_members() if m.version == "v2"]
    assert len(v2) == 2  # ceil(0.5 * 4)
    # Replacements inherit the retired members' radio cells.
    retired = [m for m in fleet.members.values()
               if m.retire_reason == "canary-replace"]
    assert sorted(m.cell_index for m in v2) == \
        sorted(m.cell_index for m in retired)
    canary.rollback()
    assert canary.state == CanaryController.ROLLED_BACK
    assert all(m.version == "v1" for m in fleet.serving_members())
    assert len(fleet.serving_members()) == 4


def test_canary_promote_switches_fleet_default_to_v2():
    canary = _controller(fraction=0.25, handicap=0.5)
    canary.deploy()
    canary.promote()
    assert canary.state == CanaryController.PROMOTED
    assert all(m.version == "v2"
               for m in canary.fleet.serving_members())


def test_canary_validates_fraction():
    sim = Simulator()
    fleet = _make_fleet(sim, members=2)
    with pytest.raises(ValueError):
        CanaryController(sim, fleet, balancer=None, fraction=0.0)
    with pytest.raises(ValueError):
        CanaryController(sim, fleet, balancer=None, fraction=1.5)


# --------------------------------------- resilient session (provider mode)
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


def test_provider_session_follows_the_candidate_list():
    sim = Simulator()
    a = _ScriptedSession(sim, [ConnectionError("a down"), "ok"])
    b = _ScriptedSession(sim, ["ok"])
    routes = [a, b]
    session = ResilientSession(lambda: list(routes), sim=sim)
    responses = []

    def drive(env):
        first = yield session.get("http://h/x")
        second = yield session.get("http://h/x")
        responses.extend([first, second])

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert [r.status for r in responses] == [200, 200]
    # First call failed over a -> b and stuck there.
    assert (a.calls, b.calls) == (1, 2)
    assert session.active_route is b
    assert session.stats.get("failovers") == 1


def test_provider_session_rebases_when_sticky_member_disappears():
    sim = Simulator()
    a = _ScriptedSession(sim, ["ok"])
    b = _ScriptedSession(sim, ["ok", "ok"])
    routes = [a, b]
    session = ResilientSession(lambda: list(routes), sim=sim)
    responses = []

    def drive(env):
        responses.append((yield session.get("http://h/x")))
        # The balancer retires a's member: it vanishes from the list.
        del routes[0]
        responses.append((yield session.get("http://h/x")))

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert [r.status for r in responses] == [200, 200]
    assert session.active_route is b
    # Moving off a retired route is a switch, not a failover.
    assert session.stats.get("failovers") == 0
    assert session.stats.get("route_switches") == 1


def test_provider_session_with_empty_candidates_exhausts():
    sim = Simulator()
    session = ResilientSession(lambda: [], sim=sim)
    captured = {}

    def drive(env):
        try:
            yield session.get("http://h/x")
        except ConnectionError as exc:
            captured["error"] = exc

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert "no middleware route" in str(captured["error"])
    assert session.stats.get("exhausted") == 1


def test_provider_session_reports_observations():
    sim = Simulator()
    good = _ScriptedSession(sim, ["ok"])
    seen = []
    session = ResilientSession(
        lambda: [good], sim=sim,
        observer=lambda s, ok, elapsed: seen.append((s, ok)))

    def drive(env):
        yield session.get("http://h/x")

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert seen == [(good, True)]


def test_static_routes_still_require_no_sim_argument():
    sim = Simulator()
    primary = _ScriptedSession(sim, [RequestTimeout("slow")])
    standby = _ScriptedSession(sim, ["ok"])
    session = ResilientSession([primary, standby])
    responses = []

    def drive(env):
        responses.append((yield session.get("http://h/x")))

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert responses[0].status == 200
    assert session.stats.get("failovers") == 1


# --------------------------------------------------------- integration (e2e)
def test_fleet_of_one_matches_single_gateway_byte_for_byte():
    from repro.perf.loadgen import run_bench

    def det_bytes(fleet):
        report = run_bench(users=4, seed=11, transactions_per_user=2,
                           horizon=60.0, trace=False, fleet=fleet)
        return json.dumps(report["deterministic"], sort_keys=True)

    assert det_bytes(1) == det_bytes(0)


def test_fleet_outage_ejects_recovers_and_strands_nobody():
    from repro.faults.chaos import run_chaos

    report = run_chaos("fleet-outage", seed=3, intensity=0.5,
                       stations=8, transactions_per_station=4,
                       horizon=200.0)
    fleet = report["fleet"]
    assert fleet["health"]["ejections"] >= 1
    assert fleet["health"]["readmissions"] >= 1
    assert fleet["stranded_sessions"] == 0
    assert report["success_vs_offered"] >= 0.9
    assert all(m["health"] == "healthy" for m in fleet["members"])


def test_canary_regression_rolls_back_with_zero_stranded():
    from repro.faults.chaos import run_chaos

    report = run_chaos("canary-regression", seed=0, intensity=0.5)
    fleet = report["fleet"]
    canary = fleet["canary"]
    assert canary["state"] == "ROLLED_BACK"
    assert canary["stats"]["windows_violation"] >= 2
    assert fleet["stranded_sessions"] == 0
    assert report["success_vs_offered"] >= 0.9
    # After rollback only v1 members serve.
    serving = [m for m in fleet["members"]
               if m["state"] == "active" and m["health"] == "healthy"]
    assert all(m["version"] == "v1" for m in serving)


def test_fleet_chaos_reports_are_deterministic():
    from repro.core.shoppers import canonical_json
    from repro.faults.chaos import run_chaos

    first, second = (
        canonical_json(run_chaos("fleet-outage", seed=5, intensity=0.4,
                                 stations=6, transactions_per_station=3,
                                 horizon=120.0))
        for _ in range(2))
    assert first == second


def test_gateway_crash_member_selectors():
    from repro.faults.injectors import gateways_for
    from repro.core import MCSystemBuilder
    from repro.resilience import ResilienceConfig

    res = ResilienceConfig(fleet_size=3, standby_gateway=False)
    system = MCSystemBuilder(seed=1, resilience=res).build()
    members = list(system.fleet.members.values())
    assert gateways_for(system, "member:1") == [members[1].gateway]
    assert gateways_for(system, "") == [system.gateway]
    chosen = gateways_for(system, "random-seeded", at=12.0)
    assert len(chosen) == 1
    assert chosen[0] in [m.gateway for m in system.fleet.active_members()]
    # Same seed, same spec time: an identical build picks the same
    # member (the draw comes from a seeded per-spec stream).
    twin = MCSystemBuilder(seed=1, resilience=res).build()
    twin_pick = gateways_for(twin, "random-seeded", at=12.0)
    index = [m.gateway for m in system.fleet.members.values()].index(
        chosen[0])
    assert twin_pick == [list(twin.fleet.members.values())[index].gateway]
    assert gateways_for(system, "canary") == []  # no v2 members yet
    with pytest.raises(ValueError):
        gateways_for(system, "bogus-target")
