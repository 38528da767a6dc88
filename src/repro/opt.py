"""Global toggles for the hot-path caches (the perf optimization pass).

Two of the three flagged caches are *transparent*: each memoizes a pure
function of its inputs — the gateway core's content memo (an HTML->WML
translation, a cHTML adaptation, a clipping compression) and the SQL
parse cache.  Turning those flags off changes how much host CPU a run
burns, never what the simulation computes: same seed, same virtual
timeline, byte-identical chaos reports / traces / benchmark tables.
That guarantee is not taken on faith — the caches rows of the
tier-1 transparency table (``tests/test_perf_bench.py``) run fixed
scenarios with the caches on and off and compare the outputs byte
for byte.

``dns_cache`` is different.  It guards :class:`repro.net.DNSResolver`'s
answer cache, and with the flag off a repeat ``resolve()`` sends a UDP
query and takes virtual time, so it is *not* transparent.  No built
system creates a resolver (gateways read the name registry directly),
so the caches rows never exercise it; ``tests/test_net_udp_dns.py``
pins both of its behaviours.  The flag stays because the ``caches-off``
arm of ``bench/worker.py`` passes its name.

The default is everything on.  ``optimizations_disabled()`` is the
scoped way to turn caches off; mutating :data:`OPTIMIZATIONS` directly
is fine in a CLI entry point but discouraged in library code.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["OptimizationFlags", "OPTIMIZATIONS", "optimizations_disabled"]

# The individual flags; each name is an OptimizationFlags slot.
FLAG_NAMES = ("dns_cache", "translation_cache", "sql_cache")

# Kept for bench/worker.py, whose ``gc-off`` ablation arm disables it:
# a retired flag that optimizations_disabled accepts as a no-op.
_RETIRED = "gc_isolation"


class OptimizationFlags:
    """One boolean per optimization; all default to enabled."""

    __slots__ = FLAG_NAMES

    def __init__(self, dns_cache: bool = True,
                 translation_cache: bool = True,
                 sql_cache: bool = True):
        self.dns_cache = dns_cache
        self.translation_cache = translation_cache
        self.sql_cache = sql_cache

    def set_all(self, enabled: bool) -> None:
        for name in FLAG_NAMES:
            setattr(self, name, enabled)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in FLAG_NAMES}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<OptimizationFlags {state}>"


#: The process-wide flag set every cache consults.
OPTIMIZATIONS = OptimizationFlags()


@contextmanager
def optimizations_disabled(*names: str):
    """Disable the named cache flags (all of them when none given) for
    the duration of the ``with`` block, restoring the previous state —
    including on error — afterwards."""
    targets = [name for name in names or FLAG_NAMES if name != _RETIRED]
    unknown = set(targets) - set(FLAG_NAMES)
    if unknown:
        raise ValueError(f"unknown optimization flag(s): {sorted(unknown)}")
    saved = {name: getattr(OPTIMIZATIONS, name) for name in targets}
    for name in targets:
        setattr(OPTIMIZATIONS, name, False)
    try:
        yield OPTIMIZATIONS
    finally:
        for name, value in saved.items():
            setattr(OPTIMIZATIONS, name, value)
