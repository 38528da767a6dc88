"""Mobile stations: the device component (ii) of the paper's model.

A :class:`MobileStation` is an IP node (it plugs into the network
substrate like any host) that additionally owns hardware models (CPU,
memory, battery), an OS profile, a position and a screen.  All
device-local work — rendering, application compute — is charged to the
CPU and battery, so device differences (Table 2) show up in end-to-end
transaction times.
"""

from __future__ import annotations

from typing import Optional

from ..net.addressing import IPAddress
from ..net.node import Node
from ..sim import Event, Simulator
from ..wireless.mobility import Mobile, Position
from .hardware import Battery, CPU, Memory
from .os import OSProfile, TaskTable

__all__ = ["Screen", "DeviceSpec", "MobileStation"]


class Screen:
    """A small display: characters per line and visible lines."""

    def __init__(self, width_px: int, height_px: int, color: bool):
        self.width_px = width_px
        self.height_px = height_px
        self.color = color

    @property
    def chars_per_line(self) -> int:
        return max(12, self.width_px // 6)

    @property
    def visible_lines(self) -> int:
        return max(4, self.height_px // 12)


class DeviceSpec:
    """A Table 2 row: everything needed to instantiate the device."""

    def __init__(self, vendor: str, model: str, os_name: str, os_version: str,
                 cpu_name: str, cpu_mhz: float, ram_mb: int, rom_mb: int,
                 screen: Screen, note: str = ""):
        self.vendor = vendor
        self.model = model
        self.os_name = os_name
        self.os_version = os_version
        self.cpu_name = cpu_name
        self.cpu_mhz = cpu_mhz
        self.ram_mb = ram_mb
        self.rom_mb = rom_mb
        self.screen = screen
        self.note = note

    @property
    def full_name(self) -> str:
        return f"{self.vendor} {self.model}"


class MobileStation(Node):
    """A handheld device with an IP stack, hardware limits and a position."""

    def __init__(self, sim: Simulator, spec: DeviceSpec, profile: OSProfile,
                 address: IPAddress, position: Position = Position(0, 0),
                 name: Optional[str] = None):
        super().__init__(sim, name or spec.full_name)
        self.spec = spec
        self.os = profile
        self.cpu = CPU(sim, spec.cpu_mhz, overhead_factor=profile.cpu_overhead)
        self.memory = Memory(ram_kb=spec.ram_mb * 1024,
                             rom_kb=spec.rom_mb * 1024)
        self.memory.allocate("os", profile.footprint_kb)
        self.battery = Battery(efficiency=profile.battery_efficiency)
        self.tasks = TaskTable(profile)
        self.mobile = Mobile(position)
        self.assign_address(address)

    # -- convenience pass-throughs -----------------------------------------
    @property
    def position(self) -> Position:
        return self.mobile.position

    def move_to(self, position: Position) -> None:
        self.mobile.move_to(position)

    # -- device-local work ---------------------------------------------------
    def compute(self, cycles: float, task: str = "app") -> Event:
        """Run ``cycles`` of application work on the device CPU.

        Returns the completion event; battery is drained for the busy
        time.  Raises BatteryDeadError if the battery is flat.
        """
        self.battery.require()
        self.tasks.start(task)
        duration = self.cpu.seconds_for(cycles)
        self.battery.drain("cpu", duration)
        done = self.cpu.execute(cycles)

        def finisher(env):
            yield done
            self.tasks.finish(task)

        self.sim.spawn(finisher(self.sim), name=f"{self.name}-compute")
        return done

    def screen_on(self, seconds: float) -> None:
        """Charge the battery for screen time (no virtual time passes)."""
        self.battery.drain("screen", seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MobileStation {self.spec.full_name} ({self.os.name})>"
