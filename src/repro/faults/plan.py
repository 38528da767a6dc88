"""Declarative fault plans on the simulation clock.

A :class:`FaultPlan` is an ordered set of :class:`FaultSpec` entries —
*what* breaks, *when* (sim-seconds), for *how long*, and how hard.
Plans are data: they serialise to JSON, validate before running, and
can be generated as a seeded random process
(:meth:`FaultPlan.random`), so a chaos run is fully determined by
``(plan | seed, system seed)`` and nothing else.  Schedules must never
come from the wall clock or the module-level ``random``: the
byte-pinned chaos reports (``tests/pins.json``) would change.
"""

from __future__ import annotations

import json
import math

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

# The taxonomy (injectors.py implements one injector per kind).
FAULT_KINDS = (
    "link_flap",        # take links down, bring them back up
    "wireless_loss",    # elevated frame loss window on radio links
    "gateway_crash",    # middleware gateway/centre/proxy crash+restart
    "server_stall",     # web server workers wedge (pool exhausted)
    "server_crash",     # web server crash+restart
    "db_stall",         # exclusive table lock held across the window
    "dns_blackout",     # name registry records vanish, then return
    "battery_drain",    # station battery loses charge instantly
    "memory_pressure",  # station RAM ballast allocated for the window
)

# (min, max) duration in sim-seconds drawn for randomly generated
# specs; instantaneous kinds get 0.
_RANDOM_DURATIONS = {
    "link_flap": (2.0, 8.0),
    "wireless_loss": (5.0, 20.0),
    "gateway_crash": (4.0, 15.0),
    "server_stall": (2.0, 8.0),
    "server_crash": (3.0, 10.0),
    "db_stall": (1.0, 4.0),
    "dns_blackout": (3.0, 12.0),
    "battery_drain": (0.0, 0.0),
    "memory_pressure": (5.0, 20.0),
}

# Kinds a generic random storm draws from.  battery_drain is excluded:
# it is irreversible, so an unlucky early draw would flatline a station
# for the whole run and swamp every other effect.
DEFAULT_RANDOM_KINDS = tuple(k for k in FAULT_KINDS if k != "battery_drain")


class FaultSpec:
    """One scheduled fault.

    ``target`` selects what to hit (injector-specific: a link-name
    substring, ``"standby"``, a table name, a DNS name, a station-name
    substring; empty = the injector's default).  ``magnitude`` scales
    intensity where meaningful (loss probability, battery fraction,
    memory fraction).
    """

    def __init__(self, kind: str, at: float, duration: float = 0.0,
                 target: str = "", magnitude: float = 1.0):
        self.kind = kind
        self.at = at
        self.duration = duration
        self.target = target
        self.magnitude = magnitude

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {', '.join(FAULT_KINDS)})")
        if self.at < 0:
            raise ValueError(f"{self.kind}: negative start time {self.at}")
        if self.duration < 0:
            raise ValueError(
                f"{self.kind}: negative duration {self.duration}")
        if self.magnitude < 0:
            raise ValueError(
                f"{self.kind}: negative magnitude {self.magnitude}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at": self.at, "duration": self.duration,
                "target": self.target, "magnitude": self.magnitude}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict) or not {"kind", "at"} <= data.keys():
            raise ValueError(f'a fault needs "kind" and "at": {data!r}')
        unknown = set(data) - {"kind", "at", "duration", "target",
                               "magnitude"}
        if unknown:
            raise ValueError(f"unknown FaultSpec keys {sorted(unknown)}")
        return cls(
            kind=data["kind"],
            at=float(data["at"]),
            duration=float(data.get("duration", 0.0)),
            target=str(data.get("target", "")),
            magnitude=float(data.get("magnitude", 1.0)),
        )


class FaultPlan:
    """An ordered schedule of faults."""

    def __init__(self, specs: list[FaultSpec] | None = None):
        self.specs = [] if specs is None else specs

    def add(self, kind: str, at: float, duration: float = 0.0,
            target: str = "", magnitude: float = 1.0) -> FaultSpec:
        spec = FaultSpec(kind=kind, at=at, duration=duration,
                         target=target, magnitude=magnitude)
        spec.validate()
        self.specs.append(spec)
        return spec

    def ordered(self) -> list[FaultSpec]:
        return sorted(self.specs,
                      key=lambda s: (s.at, s.kind, s.target, s.duration))

    def validate(self) -> None:
        for spec in self.specs:
            spec.validate()

    def __len__(self) -> int:
        return len(self.specs)

    # -- serialisation ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"faults": [s.to_dict() for s in self.ordered()]},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        faults = data.get("faults", []) if isinstance(data, dict) else None
        if not isinstance(faults, list):
            raise ValueError('a fault plan is {"faults": [...]}')
        plan = cls(specs=[FaultSpec.from_dict(entry) for entry in faults])
        plan.validate()
        return plan

    # -- generation --------------------------------------------------------
    @classmethod
    def random(cls, stream, horizon: float, intensity: float = 0.5,
               kinds=None) -> "FaultPlan":
        """Seeded Poisson fault process over ``[0, horizon)``.

        ``stream`` is a :class:`~repro.sim.RandomStream`; ``intensity``
        scales the arrival rate (~``10 * intensity`` faults per
        horizon) and the drawn magnitudes.  Identical arguments produce
        identical plans.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not 0 <= intensity < math.inf:  # also false for nan
            raise ValueError(
                f"intensity must be finite and >= 0, got {intensity}")
        kinds = tuple(kinds) if kinds else DEFAULT_RANDOM_KINDS
        plan = cls()
        if intensity == 0:
            return plan
        rate = 10.0 * intensity / horizon
        at = stream.expovariate(rate)
        while at < horizon:
            kind = stream.choice(kinds)
            low, high = _RANDOM_DURATIONS[kind]
            duration = stream.uniform(low, high)
            magnitude = 1.0
            if kind == "wireless_loss":
                magnitude = min(0.9, stream.uniform(0.2, 0.6) * 2 * intensity)
            elif kind == "memory_pressure":
                magnitude = min(0.9, stream.uniform(0.3, 0.7))
            # gateway_crash resolves through a member selector now;
            # name the classic default explicitly.
            target = "primary" if kind == "gateway_crash" else ""
            plan.add(kind, at=at, duration=duration, target=target,
                     magnitude=magnitude)
            at += stream.expovariate(rate)
        return plan
