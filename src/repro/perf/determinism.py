"""A/B determinism guards: hot-path caches, and kernel schedulers.

Every optimization behind :data:`repro.opt.OPTIMIZATIONS` claims to be
*transparent*: toggling it changes host CPU time, never what the
simulation computes.  :func:`determinism_check` holds the claim to
account — it runs fixed scenarios twice, once with every flag forced on
and once forced off, and compares the canonical JSON output byte for
byte.

:func:`scheduler_check` applies the same discipline to the pluggable
event scheduler: the calendar queue claims to reproduce the heap's
``(time, priority, seq)`` total order exactly, so running the same
scenarios under ``--scheduler heap`` and ``--scheduler calendar`` must
produce byte-identical deterministic sections.

Three comparisons cover the surfaces in both guards:

* a chaos run through the ``gateway-outage`` scenario (gateway
  translation caches plus their crash/restart flush),
* a chaos run through ``dns-blackout`` (registry generation churn),
* the benchmark's ``deterministic`` section (the whole transaction
  path, kernel event totals and per-layer trace breakdown included).
"""

from __future__ import annotations

import json

from ..faults.chaos import report_json, run_chaos
from ..opt import OPTIMIZATIONS, optimizations_disabled
from ..sim import SCHEDULERS, scheduler_override
from .loadgen import run_bench

__all__ = ["determinism_check", "fleet_check", "scheduler_check"]


def _bench_bytes(users: int, seed: int, fleet: int = 0) -> str:
    report = run_bench(users=users, seed=seed, horizon=120.0,
                       transactions_per_user=3, fleet=fleet)
    return json.dumps(report["deterministic"], indent=2, sort_keys=True)


def _chaos_bytes(scenario: str, seed: int) -> str:
    return report_json(run_chaos(scenario=scenario, seed=seed,
                                 intensity=0.6, stations=3,
                                 transactions_per_station=4,
                                 horizon=120.0))


def _guard_scenarios(users: int, seed: int) -> dict:
    """The fixed scenarios both guards byte-compare across."""
    return {
        "bench": lambda: _bench_bytes(users, seed),
        "chaos-gateway-outage": lambda: _chaos_bytes("gateway-outage", seed),
        "chaos-dns-blackout": lambda: _chaos_bytes("dns-blackout", seed),
    }


def determinism_check(users: int = 20, seed: int = 7) -> dict:
    """Run the caches-on/off A/B comparison; returns a verdict dict.

    ``identical`` is True only when every scenario produced the same
    bytes with the caches on and off.  The per-check map names any
    offender so a CI failure is self-describing.
    """
    scenarios = _guard_scenarios(users, seed)
    checks: dict[str, bool] = {}
    for name, produce in scenarios.items():
        saved = OPTIMIZATIONS.as_dict()
        try:
            OPTIMIZATIONS.set_all(True)
            optimized = produce()
            with optimizations_disabled():
                baseline = produce()
        finally:
            for flag, value in saved.items():
                setattr(OPTIMIZATIONS, flag, value)
        checks[name] = optimized == baseline
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "users": users,
        "seed": seed,
    }


def fleet_check(users: int = 20, seed: int = 7) -> dict:
    """A/B guard for the gateway-fleet wiring (DESIGN §14).

    Two claims are byte-compared:

    * **fleet-of-1 transparency** — building the middleware tier as a
      one-member fleet behind the balancer produces the same
      deterministic benchmark section as the plain single-gateway
      build (member 0 reuses the legacy port, stream names and breaker
      identity, and the balancer itself schedules no events);
    * **fleet-of-3 reproducibility** — the same seed through a real
      fleet (hash ring, health prober, per-member cells) produces the
      same bytes twice.
    """
    single = _bench_bytes(users, seed)
    fleet_of_one = _bench_bytes(users, seed, fleet=1)
    first = _bench_bytes(users, seed, fleet=3)
    second = _bench_bytes(users, seed, fleet=3)
    checks = {
        "fleet_of_1_vs_single": fleet_of_one == single,
        "fleet_of_3_repeat": first == second,
    }
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "users": users,
        "seed": seed,
    }


def scheduler_check(users: int = 20, seed: int = 7,
                    schedulers: tuple = ("heap", "calendar")) -> dict:
    """Run the scheduler A/B comparison; returns a verdict dict.

    Every scenario runs once under each named scheduler; ``identical``
    is True only when all of them produced byte-identical deterministic
    output.  The reference implementation (``heap``) goes first so a
    mismatch reads as "calendar diverged from heap".
    """
    unknown = [name for name in schedulers if name not in SCHEDULERS]
    if unknown:
        raise ValueError(f"unknown scheduler(s): {unknown}")
    if len(schedulers) < 2:
        raise ValueError("scheduler_check needs at least two schedulers")
    scenarios = _guard_scenarios(users, seed)
    checks: dict[str, bool] = {}
    for name, produce in scenarios.items():
        outputs = []
        for scheduler in schedulers:
            with scheduler_override(scheduler):
                outputs.append(produce())
        checks[name] = all(output == outputs[0] for output in outputs[1:])
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "schedulers": list(schedulers),
        "users": users,
        "seed": seed,
    }
