"""Pluggable lint rules: base class, registry, and the stock catalogue.

A rule subclasses :class:`Rule` (from :mod:`.base`), registers itself
with :func:`register_rule`, and implements :meth:`Rule.check_module`
(one file at a time) and/or :meth:`Rule.check_project` (cross-file
analyses such as import-cycle detection, run once over the whole
module set).  Importing this package registers the stock catalogue.
"""

from .base import (
    ModuleInfo,
    Rule,
    RULE_REGISTRY,
    default_rules,
    register_rule,
)
from .determinism import ModuleRandomRule, WallClockRule
from .faults import FaultScheduleRule
from .hygiene import (
    BareExceptRule,
    BroadExceptRule,
    ExportDriftRule,
    MutableDefaultRule,
)
from .imports import ImportCycleRule
from .kernel import YieldEventRule
from .ordering import SetIterationRule
from .perf import HotQueuePopRule

__all__ = [
    "ModuleInfo",
    "Rule",
    "RULE_REGISTRY",
    "default_rules",
    "register_rule",
    "ModuleRandomRule",
    "WallClockRule",
    "FaultScheduleRule",
    "BareExceptRule",
    "BroadExceptRule",
    "ExportDriftRule",
    "MutableDefaultRule",
    "ImportCycleRule",
    "YieldEventRule",
    "SetIterationRule",
    "HotQueuePopRule",
]
