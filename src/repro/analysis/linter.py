"""The linter: file discovery, suppression, reporting.

Usage::

    from repro.analysis import lint_paths
    report = lint_paths(["src/repro", "benchmarks", "examples", "tests"])
    print(report.render_text())

The rules it runs are :data:`repro.analysis.rules.RULES`.  A finding on
line *N* is suppressed by an inline comment on that line::

    from . import late     # repro: noqa[import-cycle] justification
    anything_at_all()      # repro: noqa

``# repro: noqa`` with no bracket suppresses every rule on the line;
with a bracket it suppresses only the listed rule ids.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .rules import RULES, Finding, ModuleInfo

__all__ = ["LintReport", "lint_paths", "lint_sources", "suppressed_rule_ids"]

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\s*\[(?P<ids>[^\]]*)\])?")


def suppressed_rule_ids(line: str) -> Optional[frozenset[str]]:
    """Rule ids a source line suppresses.

    ``None`` means no suppression; an empty frozenset means *all* rules
    (bare ``# repro: noqa``); otherwise the listed ids.
    """
    match = _NOQA.search(line)
    if match is None:
        return None
    ids = match.group("ids")
    if ids is None:
        return frozenset()
    return frozenset(
        part.strip() for part in ids.replace(",", " ").split() if part.strip()
    )


@dataclass
class LintReport:
    """Findings plus everything needed to render or gate on them."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)

    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"parse error: {msg}" for msg in self.parse_errors)
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s); {self.suppressed} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "parse_errors": list(self.parse_errors),
            },
            indent=2,
        )


def _infer_module(path: str) -> Optional[str]:
    """Dotted module name for ``path``, walking up through packages."""
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = os.path.splitext(filename)[0]
    parts: list[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        # Walks a handful of package levels once per file, not a queue.
        parts.insert(0, package)
    return ".".join(parts) if parts else None


def _discover(paths: Sequence[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith((".", "__pycache__")))
                files.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def _is_suppressed(info: ModuleInfo, finding: Finding) -> bool:
    if not 1 <= finding.line <= len(info.lines):
        return False
    ids = suppressed_rule_ids(info.lines[finding.line - 1])
    if ids is None:
        return False
    return not ids or finding.rule_id in ids


def lint_sources(sources: Iterable[ModuleInfo]) -> LintReport:
    """Run :data:`RULES` over already-parsed modules and filter the
    suppressed findings (the test-fixture entry point)."""
    report = LintReport()
    modules = list(sources)
    report.files_checked = len(modules)
    by_path = {info.path: info for info in modules}
    for rule in RULES:
        for finding in rule.check_project(modules):
            if _is_suppressed(by_path[finding.file], finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    # Fully keyed sort (message included as the tiebreaker) so the
    # rendered output is byte-stable across filesystems and rule
    # order — CI baselines diff against it.
    report.findings.sort(
        key=lambda f: (f.file, f.line, f.rule_id, f.message))
    return report


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Discover ``*.py`` files under ``paths`` and lint them."""
    modules: list[ModuleInfo] = []
    parse_errors: list[str] = []
    for filename in _discover(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        display = os.path.relpath(filename)
        try:
            modules.append(ModuleInfo.parse(
                display, source, module=_infer_module(filename)))
        except SyntaxError as exc:
            parse_errors.append(f"{display}: {exc.msg} (line {exc.lineno})")
    report = lint_sources(modules)
    # _discover walks sorted, but keep the contract local: parse
    # errors render in path order regardless of the input order.
    report.parse_errors = sorted(parse_errors)
    return report
