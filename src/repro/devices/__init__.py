"""Mobile stations component (paper §4): devices, OSes, browsers, hardware."""

from .browser import CYCLES_PER_BYTE, Microbrowser, RenderedPage, UnsupportedContentError
from .embedded_db import EmbeddedDatabase, Record, SyncDelta
from .hardware import (
    Battery,
    BatteryDeadError,
    CPU,
    Memory,
    OutOfMemoryError,
)
from .os import (
    OS_PROFILES,
    PALM_OS,
    POCKET_PC,
    SYMBIAN_OS,
    OSProfile,
    TaskLimitError,
    TaskTable,
)
from .registry import TABLE2_DEVICES, build_station, device_spec
from .station import DeviceSpec, MobileStation, Screen

__all__ = [
    "CYCLES_PER_BYTE",
    "Microbrowser",
    "RenderedPage",
    "UnsupportedContentError",
    "EmbeddedDatabase",
    "Record",
    "SyncDelta",
    "Battery",
    "BatteryDeadError",
    "CPU",
    "Memory",
    "OutOfMemoryError",
    "OS_PROFILES",
    "PALM_OS",
    "POCKET_PC",
    "SYMBIAN_OS",
    "OSProfile",
    "TaskLimitError",
    "TaskTable",
    "TABLE2_DEVICES",
    "build_station",
    "device_spec",
    "DeviceSpec",
    "MobileStation",
    "Screen",
]
