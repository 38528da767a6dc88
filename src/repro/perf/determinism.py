"""One table-driven equivalence guard for ``repro bench``.

Two mechanisms claim to be *transparent*: the hot-path caches behind
:data:`repro.opt.OPTIMIZATIONS` (toggling them changes host CPU time,
never what the simulation computes) and the gateway-fleet wiring (a
fleet of one is the single gateway; a real fleet is reproducible).
:func:`equivalence_check` holds such claims to account: it takes a
table of rows ``(name, produce_a, produce_b)`` and a row passes only
when both producers return the same bytes.

Producers are memoized by their arguments, so a run two rows share
executes once.  A producer is a :func:`functools.partial` over
:func:`bench_bytes` or :func:`chaos_bytes` (keyed by the function and
its arguments, defaults filled in) or any other callable (keyed by
identity).  To compare two executions of the same configuration, give
them different ``run`` numbers.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager

from ..core.shoppers import canonical_json
from ..faults.chaos import run_chaos
from ..opt import OPTIMIZATIONS
from .loadgen import run_bench

__all__ = ["equivalence_check", "bench_bytes", "chaos_bytes"]


@contextmanager
def _caches(enabled: bool):
    """Force every cache flag to ``enabled``, restoring them afterwards."""
    saved = OPTIMIZATIONS.as_dict()
    OPTIMIZATIONS.set_all(enabled)
    try:
        yield
    finally:
        for flag, value in saved.items():
            setattr(OPTIMIZATIONS, flag, value)


def bench_bytes(users: int, seed: int, transactions_per_user: int = 3,
                horizon: float = 120.0, fleet: int = 0,
                caches: bool = True, run: int = 1) -> str:
    """The bench's ``deterministic`` section as canonical JSON.

    ``run`` only tells memoized executions apart."""
    with _caches(caches):
        report = run_bench(users=users, seed=seed, horizon=horizon,
                           transactions_per_user=transactions_per_user,
                           fleet=fleet)
    return canonical_json(report["deterministic"])


def chaos_bytes(scenario: str, seed: int, caches: bool = True) -> str:
    """A small chaos run's report as canonical JSON."""
    with _caches(caches):
        report = run_chaos(scenario=scenario, seed=seed, intensity=0.6,
                           stations=3, transactions_per_station=4,
                           horizon=120.0)
    return canonical_json(report)


def _memo_key(produce):
    """A partial's function and its bound arguments, defaults filled in;
    any other callable's identity."""
    if not isinstance(produce, functools.partial):
        return produce
    bound = inspect.signature(produce.func).bind(*produce.args,
                                                 **produce.keywords)
    bound.apply_defaults()
    return (produce.func, tuple(bound.arguments.items()))


def equivalence_check(rows, **scenario) -> dict:
    """Byte-compare each row's two producers; returns a verdict dict.

    ``identical`` is True only when every row matched; ``checks`` maps
    each row name to its verdict, so a failure names its row.  Any
    ``scenario`` keywords are copied into the verdict.
    """
    memo: dict = {}

    def output(produce) -> str:
        key = _memo_key(produce)
        if key not in memo:
            memo[key] = produce()
        return memo[key]

    checks = {name: output(produce_a) == output(produce_b)
              for name, produce_a, produce_b in rows}
    return {"identical": all(checks.values()), "checks": checks,
            **scenario}
