"""Mobile operating systems (paper §4.1): Palm OS, Pocket PC, Symbian OS.

The three OS profiles differ exactly along the axes the paper
discusses:

* **Palm OS** — "plain vanilla design", cooperative single-tasking,
  tiny overhead, battery life "approximately twice that of its rivals";
* **Pocket PC** — "far more computing power than Windows CE" but
  battery-hungry, preemptive multitasking;
* **Symbian OS (EPOC32)** — "a 32-bit open operating system that
  supports preemptive multitasking", balanced overhead.

An :class:`OSProfile` turns those qualitative claims into parameters:
scheduling overhead (multiplies CPU time), max concurrent tasks, and a
battery-efficiency factor.
"""

from __future__ import annotations

__all__ = ["OSProfile", "PALM_OS", "POCKET_PC", "SYMBIAN_OS", "OS_PROFILES",
           "TaskLimitError", "TaskTable"]


class TaskLimitError(Exception):
    """Raised when a single-tasking OS is asked to multitask."""


class OSProfile:
    """Behavioural parameters of a mobile OS family."""

    def __init__(self, name: str, version: str, multitasking: str,
                 max_tasks: int, cpu_overhead: float,
                 battery_efficiency: float, footprint_kb: int):
        if cpu_overhead < 1.0:
            raise ValueError("cpu_overhead must be >= 1.0")
        if max_tasks < 1:
            raise ValueError("max_tasks must be >= 1")
        self.name = name
        self.version = version
        self.multitasking = multitasking  # "cooperative" | "preemptive"
        self.max_tasks = max_tasks  # concurrent task ceiling
        # >= 1.0; multiplies every cycle count
        self.cpu_overhead = cpu_overhead
        # > 1.0 = longer battery life
        self.battery_efficiency = battery_efficiency
        self.footprint_kb = footprint_kb  # resident RAM the OS itself claims


PALM_OS = OSProfile(
    name="Palm OS",
    version="4.1",
    multitasking="cooperative",
    max_tasks=1,
    cpu_overhead=1.05,          # plain vanilla: almost no tax
    battery_efficiency=2.0,     # "approximately twice that of its rivals"
    footprint_kb=512,
)

POCKET_PC = OSProfile(
    name="Pocket PC",
    version="2002",
    multitasking="preemptive",
    max_tasks=32,
    cpu_overhead=1.35,          # battery-hungry, heavier system services
    battery_efficiency=1.0,
    footprint_kb=8192,
)

SYMBIAN_OS = OSProfile(
    name="Symbian OS",
    version="EPOC32 6.x",
    multitasking="preemptive",
    max_tasks=16,
    cpu_overhead=1.20,
    battery_efficiency=1.3,
    footprint_kb=4096,
)

OS_PROFILES = {
    profile.name: profile for profile in (PALM_OS, POCKET_PC, SYMBIAN_OS)
}


class TaskTable:
    """Tracks running tasks against the OS's concurrency ceiling."""

    def __init__(self, profile: OSProfile):
        self.profile = profile
        self.running: list[str] = []

    def start(self, name: str) -> None:
        if len(self.running) >= self.profile.max_tasks:
            raise TaskLimitError(
                f"{self.profile.name} ({self.profile.multitasking}) "
                f"cannot run more than {self.profile.max_tasks} task(s); "
                f"running: {self.running}"
            )
        self.running.append(name)

    def finish(self, name: str) -> None:
        if name in self.running:
            self.running.remove(name)

    def __len__(self) -> int:
        return len(self.running)
