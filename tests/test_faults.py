"""Unit tests for repro.faults: plans, injectors, engine, determinism."""

import pytest

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.faults import (
    FAULT_KINDS,
    FaultEngine,
    FaultPlan,
    FaultSpec,
    INJECTORS,
    links_for,
    radio_links_for,
)
from repro.sim import SeedBank


# ------------------------------------------------------------- the plan
def test_every_kind_has_an_injector():
    assert set(INJECTORS) == set(FAULT_KINDS)


def test_random_plan_is_deterministic():
    plan_a = FaultPlan.random(SeedBank(9).stream("chaos"), horizon=300.0,
                              intensity=0.7)
    plan_b = FaultPlan.random(SeedBank(9).stream("chaos"), horizon=300.0,
                              intensity=0.7)
    assert len(plan_a) > 0
    assert plan_a.to_json() == plan_b.to_json()
    # A different seed gives a different schedule.
    plan_c = FaultPlan.random(SeedBank(10).stream("chaos"), horizon=300.0,
                              intensity=0.7)
    assert plan_a.to_json() != plan_c.to_json()


def test_random_plan_respects_horizon_and_kinds():
    plan = FaultPlan.random(SeedBank(3).stream("chaos"), horizon=200.0,
                            intensity=1.0, kinds=("link_flap",))
    assert len(plan) > 0
    for spec in plan.specs:
        assert spec.kind == "link_flap"
        assert 0 <= spec.at < 200.0
    assert len(FaultPlan.random(SeedBank(3).stream("chaos"), horizon=100.0,
                                intensity=0.0)) == 0


@pytest.mark.parametrize("intensity", [-1.0, float("nan"), float("inf")])
def test_random_plan_rejects_a_non_finite_or_negative_intensity(intensity):
    # inf once looped forever: expovariate(inf) is 0.0, so the arrival
    # time never reached the horizon.
    with pytest.raises(ValueError, match="finite and >= 0"):
        FaultPlan.random(SeedBank(3).stream("chaos"), horizon=100.0,
                         intensity=intensity)


def test_plan_json_roundtrip():
    plan = FaultPlan()
    plan.add("gateway_crash", at=12.0, duration=5.0)
    plan.add("dns_blackout", at=3.0, duration=2.0, target="shop.example")
    plan.add("wireless_loss", at=3.0, duration=8.0, magnitude=0.4)
    restored = FaultPlan.from_json(plan.to_json())
    assert restored.to_json() == plan.to_json()
    # ordered() sorts by start time first.
    assert [s.at for s in restored.ordered()] == [3.0, 3.0, 12.0]


def test_plan_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        FaultPlan().add("volcano", at=1.0)
    with pytest.raises(ValueError):
        FaultPlan().add("link_flap", at=-1.0)
    with pytest.raises(ValueError):
        FaultPlan().add("link_flap", at=1.0, duration=-2.0)
    with pytest.raises(ValueError):
        FaultSpec.from_dict({"kind": "link_flap", "at": 0.0, "colour": "red"})


# ------------------------------------------------------------- injectors
def _world(seed=4, stations=1, middleware="WAP"):
    system = MCSystemBuilder(seed=seed, middleware=middleware).build()
    shop = CommerceApp()
    system.mount_application(shop)
    handles = [system.add_station("Nokia 9290 Communicator",
                                  name=f"station-{i}")
               for i in range(stations)]
    return system, shop, handles


def _probe(system, at, fn, out):
    """Record fn() at sim time ``at``."""
    def proc(env):
        yield env.timeout(at)
        out.append((at, fn()))
    system.sim.spawn(proc(system.sim), name=f"probe-{at:g}")


def test_link_flap_downs_links_and_restores():
    system, _, handles = _world()
    plan = FaultPlan()
    plan.add("link_flap", at=5.0, duration=4.0)
    FaultEngine(system, plan).start()
    seen = []
    probe_links = links_for(system)
    assert probe_links
    _probe(system, 7.0, lambda: all(l.is_down for l in probe_links), seen)
    _probe(system, 12.0, lambda: any(l.is_down for l in probe_links), seen)
    system.run(until=20)
    assert seen == [(7.0, True), (12.0, False)]


def test_wireless_loss_window_restores_loss_rate():
    system, _, handles = _world()
    radios = radio_links_for(system)
    assert radios  # cellular bearer exposes per-attachment radio links
    before = [link.loss_rate for link in radios]
    plan = FaultPlan()
    plan.add("wireless_loss", at=2.0, duration=6.0, magnitude=0.5)
    FaultEngine(system, plan).start()
    seen = []
    _probe(system, 4.0, lambda: [l.loss_rate for l in radios], seen)
    system.run(until=15)
    assert seen == [(4.0, [0.5] * len(radios))]
    assert [link.loss_rate for link in radios] == before


def test_gateway_crash_window():
    system, _, handles = _world()
    plan = FaultPlan()
    plan.add("gateway_crash", at=3.0, duration=5.0)
    FaultEngine(system, plan).start()
    seen = []
    _probe(system, 4.0, lambda: system.gateway.is_down, seen)
    _probe(system, 10.0, lambda: system.gateway.is_down, seen)
    system.run(until=15)
    assert seen == [(4.0, True), (10.0, False)]


def test_server_stall_exhausts_worker_pool():
    system, _, handles = _world()
    plan = FaultPlan()
    plan.add("server_stall", at=1.0, duration=4.0)
    FaultEngine(system, plan).start()
    workers = system.host.web_server.workers
    seen = []
    _probe(system, 2.0, lambda: workers.available, seen)
    _probe(system, 8.0, lambda: workers.available, seen)
    system.run(until=15)
    assert seen == [(2.0, 0), (8.0, workers.capacity)]


def test_dns_blackout_hides_then_restores_records():
    system, _, handles = _world()
    names = [name for name in system.registry._records]
    assert names
    saved = {name: system.registry.lookup(name) for name in names}
    plan = FaultPlan()
    plan.add("dns_blackout", at=2.0, duration=3.0)
    FaultEngine(system, plan).start()
    seen = []
    _probe(system, 3.0,
           lambda: [system.registry.lookup(n) for n in names], seen)
    system.run(until=10)
    assert seen == [(3.0, [None] * len(names))]
    for name in names:
        assert system.registry.lookup(name) == saved[name]


def test_battery_drain_is_instant_and_irreversible():
    system, _, handles = _world()
    battery = handles[0].station.battery
    start = battery.charge
    plan = FaultPlan()
    plan.add("battery_drain", at=1.0, magnitude=0.5)
    FaultEngine(system, plan).start()
    system.run(until=5)
    assert battery.charge == pytest.approx(start - 0.5 * battery.capacity)


def test_memory_pressure_allocates_then_frees():
    system, _, handles = _world()
    memory = handles[0].station.memory
    free_before = memory.free_kb
    plan = FaultPlan()
    plan.add("memory_pressure", at=1.0, duration=4.0, magnitude=0.5)
    FaultEngine(system, plan).start()
    seen = []
    _probe(system, 2.0, lambda: memory.free_kb, seen)
    system.run(until=10)
    assert seen[0][1] < free_before
    assert memory.free_kb == free_before


# ------------------------------------------------------------- the engine
def test_engine_counts_injections_and_rejects_double_start():
    system, _, handles = _world()
    plan = FaultPlan()
    plan.add("link_flap", at=1.0, duration=1.0)
    plan.add("dns_blackout", at=2.0, duration=1.0)
    engine = FaultEngine(system, plan).start()
    with pytest.raises(RuntimeError):
        engine.start()
    system.run(until=10)
    assert engine.stats.get("injected") == 2
    assert engine.stats.get("injected_link_flap") == 1
    assert engine.stats.get("injected_dns_blackout") == 1


def _transaction_fingerprint(seed, with_empty_engine):
    system = MCSystemBuilder(seed=seed).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 1_000_000)
    handle = system.add_station("Nokia 9290 Communicator")
    if with_empty_engine:
        FaultEngine(system, FaultPlan()).start()
    engine = TransactionEngine(system)
    records = []

    def shopper(env):
        for _ in range(3):
            done = engine.run_flow(handle,
                                   shop.browse_and_buy(account="ann"))
            record = yield done
            records.append(record)

    system.sim.spawn(shopper(system.sim), name="shopper")
    system.run(until=120)
    return [(r.ok, r.error, r.started_at, r.finished_at, tuple(r.steps),
             r.retries) for r in records]


def test_zero_fault_plan_is_equivalent_to_no_engine():
    """An empty fault plan must not perturb the simulation at all."""
    assert _transaction_fingerprint(21, False) == \
        _transaction_fingerprint(21, True)


# ------------------------------------------- cache correctness under chaos
def test_dns_cache_not_stale_across_blackout():
    """A cached resolver answer must die with the blackout window.

    The resolver caches positive answers under the registry generation;
    ``dns_blackout`` edits the registry (bumping the generation), so a
    mid-window resolve must go back to the wire and learn the truth
    (no record) rather than serve the cached address.
    """
    from repro.net import DNSResolver, DNSServer, Subnet

    system, _, handles = _world()
    name = next(iter(system.registry._records))
    expected = system.registry.lookup(name)
    net = system.network
    client_node = net.add_node("dns-probe-client")
    server_node = net.add_node("dns-probe-server")
    net.connect(client_node, server_node, Subnet.parse("10.99.0.0/24"),
                delay=0.002)
    net.build_routes()
    DNSServer(server_node, system.registry)
    resolver = DNSResolver(client_node, server_node.primary_address,
                           authority=system.registry)

    plan = FaultPlan()
    plan.add("dns_blackout", at=5.0, duration=4.0)
    FaultEngine(system, plan).start()

    answers = []

    def lookup_at(at):
        def proc(env):
            yield env.timeout(at)
            answer = yield resolver.resolve(name)
            answers.append((at, answer))
        system.sim.spawn(proc(system.sim), name=f"dns-probe-{at:g}")

    lookup_at(1.0)   # miss: fills the cache
    lookup_at(2.0)   # hit: served from cache
    lookup_at(6.0)   # mid-blackout: MUST NOT serve the stale entry
    lookup_at(12.0)  # after restore: resolves again
    system.run(until=20)

    assert answers == [(1.0, expected), (2.0, expected),
                       (6.0, None), (12.0, expected)]
    assert resolver.hits == 1  # only the pre-blackout repeat was cached


@pytest.mark.parametrize("middleware", ["WAP", "i-mode", "Palm"])
def test_gateway_crash_flushes_translation_cache(middleware):
    """A restarted gateway must not reuse pre-crash translations."""
    system, shop, handles = _world(middleware=middleware)
    system.host.payment.open_account("ann", 100_000)
    engine = TransactionEngine(system)
    done = engine.run_flow(handles[0],
                           shop.browse_and_buy(account="ann", user="ann"))
    plan = FaultPlan()
    plan.add("gateway_crash", at=60.0, duration=5.0)
    FaultEngine(system, plan).start()
    seen = []
    _probe(system, 59.0, lambda: len(system.gateway._translations) > 0, seen)
    _probe(system, 61.0, lambda: len(system.gateway._translations), seen)
    system.run(until=120)
    assert done.value.ok
    assert seen == [(59.0, True), (61.0, 0)]
