"""Named chaos scenarios and the end-to-end chaos runner.

:func:`run_chaos` runs the shared shopper workload
(:func:`repro.core.shoppers.run_shoppers`, resilience policies on or
off) while a :class:`FaultEngine` executes the scenario's fault plan,
and returns a deterministic JSON-able report —
success rate, latency percentiles, retry/failover/breaker/shedding
counters, and the plan itself.  Everything derives from the seed and
the sim clock, so the same arguments produce a byte-identical report.
"""

from __future__ import annotations

from ..core import MCSystemBuilder
from ..core.shoppers import DEFAULT_DEVICE, outcome, run_shoppers
from ..fleet import fleet_report
from ..resilience import ResilienceConfig
from .engine import FaultEngine
from .plan import FaultPlan

__all__ = ["SCENARIOS", "FLEET_SCENARIOS", "scenario_plan", "run_chaos"]


# ------------------------------------------------------------- scenarios
def _flaky_radio(stream, horizon, intensity):
    """Radio link flaps plus elevated-loss windows, repeating."""
    plan = FaultPlan()
    period = max(20.0, horizon / 6.0)
    at = period / 2.0
    while at < horizon:
        plan.add("link_flap", at=at, duration=2.0 + 4.0 * intensity,
                 target="cell-")
        loss_at = at + period / 2.0
        if loss_at < horizon:
            plan.add("wireless_loss", at=loss_at,
                     duration=6.0 + 6.0 * intensity,
                     target="cell-",
                     magnitude=min(0.8, 0.3 + 0.5 * intensity))
        at += period
    return plan


def _gateway_outage(stream, horizon, intensity):
    """Primary gateway crashes mid-run; a shorter relapse later."""
    plan = FaultPlan()
    plan.add("gateway_crash", at=horizon * 0.2,
             duration=horizon * (0.1 + 0.15 * intensity),
             target="primary")
    plan.add("gateway_crash", at=horizon * 0.6,
             duration=horizon * 0.08 * (1.0 + intensity),
             target="primary")
    if intensity >= 0.75:
        # Hard mode: the standby goes down while the primary is out.
        plan.add("gateway_crash", at=horizon * 0.22,
                 duration=horizon * 0.05, target="standby")
    return plan


def _brownout(stream, horizon, intensity):
    """Host-tier brownout: worker stalls, a DB lock stall, one crash."""
    plan = FaultPlan()
    plan.add("server_stall", at=horizon * 0.15,
             duration=2.0 + 6.0 * intensity)
    plan.add("db_stall", at=horizon * 0.4,
             duration=1.0 + 3.0 * intensity, target="shop_items")
    plan.add("server_crash", at=horizon * 0.65,
             duration=2.0 + 8.0 * intensity)
    return plan


def _dns_blackout(stream, horizon, intensity):
    plan = FaultPlan()
    plan.add("dns_blackout", at=horizon * 0.25,
             duration=3.0 + 9.0 * intensity, target="shop.example.com")
    plan.add("dns_blackout", at=horizon * 0.7,
             duration=2.0 + 6.0 * intensity, target="shop.example.com")
    return plan


def _storm(stream, horizon, intensity):
    """Seeded Poisson storm across the whole taxonomy."""
    return FaultPlan.random(stream, horizon, intensity=intensity)


def _fleet_outage(stream, horizon, intensity):
    """Kill one member of the fleet mid-run; health checks recover it.

    k=1 of N=4: the member is ejected after ``unhealthy_threshold``
    failed probes, its ring keys remap to the survivors, and it is
    re-admitted half-open once the restart answers probes again.
    """
    plan = FaultPlan()
    plan.add("gateway_crash", at=horizon * 0.3,
             duration=horizon * (0.2 + 0.2 * intensity),
             target="member:1")
    return plan


def _canary_regression(stream, horizon, intensity):
    """No injected fault: the regression is the handicapped v2 build.

    The scenario's fleet config deploys a deliberately degraded canary
    (per-request handicap scaling with intensity); the controller must
    detect the SLO breach and roll back with zero stranded sessions.
    """
    return FaultPlan()


SCENARIOS = {
    "flaky-radio": _flaky_radio,
    "gateway-outage": _gateway_outage,
    "brownout": _brownout,
    "dns-blackout": _dns_blackout,
    "storm": _storm,
    "fleet-outage": _fleet_outage,
    "canary-regression": _canary_regression,
}

# Scenarios that only make sense on a fleet get one by default (an
# explicit ``fleet=`` argument still wins).
FLEET_SCENARIOS = {"fleet-outage": 4, "canary-regression": 4}


def scenario_plan(scenario: str, stream, horizon: float,
                  intensity: float) -> FaultPlan:
    try:
        build = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r} "
                         f"(known: {', '.join(sorted(SCENARIOS))})")
    return build(stream, horizon, intensity)


# ------------------------------------------------------------- the runner
def run_chaos(scenario: str = "storm", seed: int = 0,
              intensity: float = 0.5, policies: bool = True,
              stations: int = None, transactions_per_station: int = 6,
              horizon: float = 240.0, middleware: str = "WAP",
              bearer: tuple = ("cellular", "GPRS"),
              device: str = DEFAULT_DEVICE,
              plan: FaultPlan = None,
              post_build=None, fleet: int = 0) -> dict:
    """Run one chaos scenario end to end; returns the report dict.

    ``policies=False`` builds the identical system without any
    resilience wiring (no retry, breakers, standby, shedding), which is
    the baseline the benchmark compares against.  An explicit ``plan``
    overrides the scenario's schedule (the scenario name is still
    recorded).  ``post_build(system, engine)``, when given, runs after
    the scenario is fully wired but before the clock starts (the tests
    use it to reach the built system).  ``fleet`` > 0 runs the scenario
    against an N-member gateway fleet (requires ``policies``); the
    fleet-native scenarios (``fleet-outage``, ``canary-regression``)
    default to one.
    """
    if fleet == 0:
        fleet = FLEET_SCENARIOS.get(scenario, 0)
    if fleet > 0 and not policies:
        raise ValueError("a gateway fleet requires policies=True")
    if stations is None:
        # Fleet scenarios need enough stations that every member (and
        # the canary cohort) actually sees traffic.
        stations = 12 if fleet > 0 else 4
    resilience = ResilienceConfig(fleet_size=fleet) if policies else None
    if scenario == "canary-regression" and fleet > 0:
        # The planted regression: a v2 canary whose per-request
        # handicap scales with intensity, judged over windows sized to
        # see several transactions per side.
        resilience.canary = dict(
            fraction=0.5,
            deploy_at=horizon * 0.25,
            handicap=2.0 + 2.0 * intensity,
            window=horizon / 6.0,
            min_samples=3,
            violations=2,
        )
    faults = None

    def start(system):
        nonlocal plan, faults
        if plan is None:
            plan = scenario_plan(scenario, system.seeds.stream("chaos-plan"),
                                 horizon, intensity)
        faults = FaultEngine(system, plan).start()

    system, engine, handles = run_shoppers(
        MCSystemBuilder(seed=seed, middleware=middleware, bearer=bearer,
                        resilience=resilience),
        stations=stations, transactions=transactions_per_station,
        horizon=horizon, device=device, stock=10_000, account="shopper",
        think="chaos-think", start=start, post_build=post_build)

    errors: dict = {}
    for record in engine.completed:
        if not record.ok:
            label = record.error.split(":", 1)[0] or "unknown"
            errors[label] = errors.get(label, 0) + 1

    report = {
        "scenario": scenario,
        "seed": seed,
        "intensity": intensity,
        "policies": bool(policies),
        "middleware": middleware,
        "bearer": list(bearer),
        "device": device,
        "horizon": horizon,
        "stations": stations,
        "transactions_per_station": transactions_per_station,
        "plan": [spec.to_dict() for spec in plan.ordered()],
        "faults": dict(sorted(faults.stats.as_dict().items())),
        **outcome(engine, stations * transactions_per_station),
        "success_rate": round(engine.success_rate(), 6),
        "errors": dict(sorted(errors.items())),
        "resilience": _resilience_counters(system, handles),
    }
    if system.fleet is not None:
        report["fleet"] = fleet_report(system)
    return report


def _resilience_counters(system, handles) -> dict:
    counters: dict = {"enabled": system.resilience is not None}
    web = system.host.web_server
    counters["shed_requests"] = web.stats.get("shed_requests")
    counters["web_crashes"] = web.stats.get("crashes")
    for label, gateway in (("gateway", system.gateway),
                           ("standby_gateway", system.standby_gateway)):
        if gateway is None:
            continue
        entry = {
            "crashes": gateway.stats.get("crashes"),
            "origin_timeouts": gateway.stats.get("origin_timeouts"),
            "breaker_rejections": gateway.stats.get("breaker_rejections"),
        }
        breaker = getattr(gateway, "breaker", None)
        if breaker is not None:
            entry["breaker"] = dict(sorted(breaker.stats.as_dict().items()))
        counters[label] = entry
    failovers = route_failures = 0
    for handle in handles:
        stats = getattr(handle.session, "stats", None)
        if stats is None:
            continue
        failovers += stats.get("failovers")
        route_failures += stats.get("route_failures")
    counters["failovers"] = failovers
    counters["route_failures"] = route_failures
    return counters
