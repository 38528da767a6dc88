"""Positions and mobility models for mobile stations.

Radio behaviour in this package is position-dependent (path loss grows
with distance), so anything with a radio carries a :class:`Position`.
Two movement models cover the tests and benchmarks: a deterministic
:class:`LinearPath` and the classic :class:`RandomWaypoint`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..sim import RandomStream, Simulator

__all__ = ["Position", "Mobile", "LinearPath", "RandomWaypoint"]


class Position:
    """A point in a flat 2-D service area (metres)."""

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def __eq__(self, other):
        if other.__class__ is Position:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def toward(self, other: "Position", step: float) -> "Position":
        """The point ``step`` metres from here toward ``other`` (clamped)."""
        total = self.distance_to(other)
        if total <= step or total == 0.0:
            return other
        frac = step / total
        return Position(self.x + (other.x - self.x) * frac,
                        self.y + (other.y - self.y) * frac)


class Mobile:
    """Mixin/holder for anything with a position that may change.

    ``on_move`` callbacks fire after every position change; WLAN and
    cellular attachment managers subscribe to drive handoffs.
    """

    def __init__(self, position: Position):
        self.position = position
        self.on_move: list[Callable[[Position], None]] = []

    def move_to(self, position: Position) -> None:
        self.position = position
        for callback in list(self.on_move):
            callback(position)


class LinearPath:
    """Move a :class:`Mobile` along waypoints at constant speed."""

    def __init__(self, sim: Simulator, mobile: Mobile,
                 waypoints: list[Position], speed: float,
                 tick: float = 1.0):
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        if tick <= 0:
            raise ValueError(f"tick must be positive: {tick}")
        self.sim = sim
        self.mobile = mobile
        self.waypoints = list(waypoints)
        self.speed = speed
        self.tick = tick
        self.done = sim.event()
        sim.spawn(self._walk(), name="linear-path")

    def _walk(self):
        for target in self.waypoints:
            while self.mobile.position != target:
                yield self.sim.timeout(self.tick)
                self.mobile.move_to(
                    self.mobile.position.toward(target, self.speed * self.tick)
                )
        self.done.succeed()


# Seconds between a random-waypoint mobile's position updates.
WAYPOINT_TICK = 1.0


class RandomWaypoint:
    """Random-waypoint mobility inside a rectangular area."""

    def __init__(
        self,
        sim: Simulator,
        mobile: Mobile,
        stream: RandomStream,
        width: float,
        height: float,
        speed_range: tuple[float, float] = (0.5, 2.0),
        pause_range: tuple[float, float] = (0.0, 10.0),
    ):
        if width <= 0 or height <= 0:
            raise ValueError("area dimensions must be positive")
        lo, hi = speed_range
        if lo <= 0 or hi < lo:
            raise ValueError(f"bad speed range: {speed_range}")
        self.sim = sim
        self.mobile = mobile
        self.stream = stream
        self.width = width
        self.height = height
        self.speed_range = speed_range
        self.pause_range = pause_range
        self.stopped = False
        sim.spawn(self._roam(), name="random-waypoint")

    def stop(self) -> None:
        self.stopped = True

    def _pick_target(self) -> Position:
        return Position(self.stream.uniform(0, self.width),
                        self.stream.uniform(0, self.height))

    def _roam(self):
        while not self.stopped:
            target = self._pick_target()
            speed = self.stream.uniform(*self.speed_range)
            while self.mobile.position != target and not self.stopped:
                yield self.sim.timeout(WAYPOINT_TICK)
                self.mobile.move_to(
                    self.mobile.position.toward(target, speed * WAYPOINT_TICK)
                )
            pause = self.stream.uniform(*self.pause_range)
            if pause > 0:
                yield self.sim.timeout(pause)
