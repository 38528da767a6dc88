"""Hardware models for mobile stations: CPU, memory, battery.

The paper (§8) characterises mobile stations as "limited by their small
screens, limited memory, limited processing power, and low battery
power".  These models make those limits *bind*: rendering a page takes
CPU cycles (slower on a 33 MHz Dragonball than a 400 MHz PXA250),
memory allocation can fail, and the battery actually drains.
"""

from __future__ import annotations

from ..sim import Event, Simulator

__all__ = ["CPU", "Memory", "Battery", "DrainRates", "OutOfMemoryError",
           "BatteryDeadError"]


class OutOfMemoryError(Exception):
    """Raised when an allocation exceeds the device's free RAM."""


class BatteryDeadError(Exception):
    """Raised when an operation is attempted on a drained battery."""


class CPU:
    """A single-core CPU clocked at ``mhz``; work is counted in cycles."""

    def __init__(self, sim: Simulator, mhz: float, overhead_factor: float = 1.0):
        if mhz <= 0:
            raise ValueError(f"CPU clock must be positive: {mhz}")
        if overhead_factor < 1.0:
            raise ValueError("overhead factor cannot be below 1.0")
        self.sim = sim
        self.mhz = mhz
        self.overhead_factor = overhead_factor
        self.busy_seconds = 0.0

    def seconds_for(self, cycles: float) -> float:
        """Wall-clock (virtual) time to execute ``cycles``."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        return cycles * self.overhead_factor / (self.mhz * 1e6)

    def execute(self, cycles: float) -> Event:
        """Timeout event covering the execution of ``cycles``."""
        duration = self.seconds_for(cycles)
        self.busy_seconds += duration
        return self.sim.timeout(duration)


class Memory:
    """RAM/ROM with explicit allocation accounting (kilobytes)."""

    def __init__(self, ram_kb: int, rom_kb: int):
        if ram_kb <= 0 or rom_kb < 0:
            raise ValueError("memory sizes must be positive")
        self.ram_kb = ram_kb
        self.rom_kb = rom_kb
        self.used_kb = 0
        self._allocations: dict[str, int] = {}

    @property
    def free_kb(self) -> int:
        return self.ram_kb - self.used_kb

    def allocate(self, tag: str, kb: int) -> None:
        if kb <= 0:
            raise ValueError(f"allocation must be positive: {kb}")
        if kb > self.free_kb:
            raise OutOfMemoryError(
                f"{tag}: need {kb} KB, only {self.free_kb} KB free "
                f"of {self.ram_kb} KB"
            )
        self._allocations[tag] = self._allocations.get(tag, 0) + kb
        self.used_kb += kb

    def free(self, tag: str) -> int:
        """Release everything allocated under ``tag``; returns KB freed."""
        kb = self._allocations.pop(tag, 0)
        self.used_kb -= kb
        return kb

    def usage(self) -> dict[str, int]:
        return dict(self._allocations)


class DrainRates:
    """Battery drain in capacity-units per (virtual) second of activity."""

    def __init__(self, idle: float = 0.01, cpu: float = 0.20,
                 radio_tx: float = 0.50, screen: float = 0.10):
        self.idle = idle
        self.cpu = cpu
        self.radio_tx = radio_tx
        self.screen = screen


class Battery:
    """A battery with per-activity drain accounting."""

    def __init__(self, capacity: float = 3600.0, efficiency: float = 1.0):
        if capacity <= 0:
            raise ValueError("battery capacity must be positive")
        if efficiency <= 0:
            raise ValueError("efficiency must be positive")
        self.capacity = capacity
        self.charge = capacity
        self.rates = DrainRates()
        # >1.0 means the platform sips power (the paper: Palm OS battery
        # life is "approximately twice that of its rivals").
        self.efficiency = efficiency

    @property
    def level(self) -> float:
        """Remaining fraction in [0, 1]."""
        return max(0.0, self.charge / self.capacity)

    @property
    def is_dead(self) -> bool:
        return self.charge <= 0.0

    def drain(self, activity: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds}")
        rate = getattr(self.rates, activity, None)
        if rate is None:
            raise ValueError(f"unknown activity {activity!r}")
        self.charge -= rate * seconds / self.efficiency
        if self.charge < 0:
            self.charge = 0.0

    def require(self) -> None:
        if self.is_dead:
            raise BatteryDeadError("battery exhausted")

    def recharge(self) -> None:
        self.charge = self.capacity
