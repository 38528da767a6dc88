"""Analysis: simulation-safety linter, model checker, race sanitizer.

Two engines guard the model *before* anything runs:

* the **linter** (:mod:`repro.analysis.linter`) walks Python sources
  with an AST pass and a pluggable :class:`~repro.analysis.rules.Rule`
  registry, flagging determinism hazards (wall-clock reads, unseeded
  randomness, non-``Event`` yields in simulation processes) and code
  hygiene problems (bare excepts, mutable defaults, ``__all__`` drift,
  import cycles);
* the **model checker** (:mod:`repro.analysis.model_check`) renders
  verdicts (``PASS``/``FAIL``/``INCONCLUSIVE``) over a built-but-not-run
  :class:`~repro.core.model.SystemModel`, mapping every Figure 1/2 and
  Table 3 claim from :mod:`repro.core.requirements` to a machine check.

One guards it while it runs: the **race sanitizer**
(:mod:`repro.analysis.races`) flags same-timestamp read/write
conflicts over instrumented shared state and confirms them by
deterministic flipped-order replay.
"""

from .findings import Finding, SEVERITY_ERROR, SEVERITY_WARNING
from .linter import LintReport, Linter, lint_paths
from .model_check import (
    CheckResult,
    ModelChecker,
    ModelCheckReport,
    Verdict,
    check_reference_systems,
)
from .races import (
    BatchSanitizer,
    install_sanitizer,
    instrument_system,
)
from .rules import Rule, RULE_REGISTRY, default_rules, register_rule

__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "LintReport",
    "Linter",
    "lint_paths",
    "CheckResult",
    "ModelChecker",
    "ModelCheckReport",
    "Verdict",
    "check_reference_systems",
    "BatchSanitizer",
    "install_sanitizer",
    "instrument_system",
    "Rule",
    "RULE_REGISTRY",
    "default_rules",
    "register_rule",
]
