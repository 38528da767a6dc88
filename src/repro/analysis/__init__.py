"""Analysis: the model checker.

The **model checker** (:mod:`repro.analysis.model_check`) guards the
model *before* anything runs: it renders verdicts
(``PASS``/``FAIL``/``INCONCLUSIVE``) over a built-but-not-run
:class:`~repro.core.model.SystemModel`, mapping every Figure 1/2 and
Table 3 claim from :mod:`repro.core.requirements` to a machine check
(the claim, verdict and report types live there too).

An import cycle that breaks one entry module is caught by no engine
here but by ``tests/test_stdlib_only.py``, which imports every module
as the first one loaded.
"""

from ..core.requirements import CheckResult, ModelCheckReport, Verdict
from .model_check import ModelChecker, check_reference_systems

__all__ = [
    "CheckResult",
    "ModelChecker",
    "ModelCheckReport",
    "Verdict",
    "check_reference_systems",
]
