"""Analysis: linter, model checker, race sanitizer.

Two engines guard the model *before* anything runs:

* the **linter** (:mod:`repro.analysis.linter`) walks Python sources
  with an AST pass and runs :data:`repro.analysis.rules.RULES` — one
  rule, ``import-cycle``: a runtime import cycle can import cleanly
  from one entry module and fail from another, which no run shows
  unless that entry module is imported first;
* the **model checker** (:mod:`repro.analysis.model_check`) renders
  verdicts (``PASS``/``FAIL``/``INCONCLUSIVE``) over a built-but-not-run
  :class:`~repro.core.model.SystemModel`, mapping every Figure 1/2 and
  Table 3 claim from :mod:`repro.core.requirements` to a machine check
  (the claim, verdict and report types live there too).

One guards it while it runs: the **race sanitizer**
(:mod:`repro.analysis.races`) flags same-timestamp read/write
conflicts over instrumented shared state and confirms them by
deterministic flipped-order replay.
"""

from .linter import LintReport, lint_paths, lint_sources
from ..core.requirements import CheckResult, ModelCheckReport, Verdict
from .model_check import ModelChecker, check_reference_systems
from .races import (
    BatchSanitizer,
    install_sanitizer,
    instrument_system,
)
from .rules import RULES, Finding

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_sources",
    "CheckResult",
    "ModelChecker",
    "ModelCheckReport",
    "Verdict",
    "check_reference_systems",
    "BatchSanitizer",
    "install_sanitizer",
    "instrument_system",
    "RULES",
]
