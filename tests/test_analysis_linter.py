"""Tests for the linter: the import-cycle rule detects cycles, stays
quiet on acyclic code, and honours ``# repro: noqa[...]``."""

import json
import os
import textwrap

from repro.__main__ import _default_lint_paths, main
from repro.analysis import RULES, lint_paths, lint_sources
from repro.analysis.rules import ModuleInfo

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules(**sources):
    return [ModuleInfo.parse(f"{name.replace('.', '/')}.py",
                             textwrap.dedent(src), module=name)
            for name, src in sources.items()]


def _write_cycle(directory):
    """Two top-level modules that import each other; returns their paths."""
    a = directory / "aa_cycle.py"
    b = directory / "bb_cycle.py"
    a.write_text("import bb_cycle\n")
    b.write_text("import aa_cycle\n")
    return a, b


# -- import-cycle --------------------------------------------------------------

def test_import_cycle_detected():
    report = lint_sources(_modules(**{
        "repro.aa.one": "from repro.bb import two\n",
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert len(report.findings) == 1
    assert "repro.aa.one" in report.findings[0].message
    assert "repro.bb.two" in report.findings[0].message


def test_import_cycle_ignores_acyclic_and_type_checking():
    acyclic = lint_sources(_modules(**{
        "repro.aa.one": "from repro.bb import two\n",
        "repro.bb.two": "import json\n",
    }))
    assert acyclic.findings == []
    guarded = lint_sources(_modules(**{
        "repro.aa.one": textwrap.dedent("""\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.bb import two
        """),
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert guarded.findings == []


def test_import_cycle_resolves_relative_imports():
    report = lint_sources([
        ModuleInfo.parse("repro/aa/__init__.py",
                         "from .one import x\n", module="repro.aa"),
        ModuleInfo.parse("repro/aa/one.py",
                         "from . import helper\n", module="repro.aa.one"),
    ])
    assert len(report.findings) == 1


def test_import_cycle_suppressed():
    report = lint_sources([
        ModuleInfo.parse(
            "repro/aa/one.py",
            "from repro.bb import two  # repro: noqa[import-cycle] legacy\n",
            module="repro.aa.one"),
        ModuleInfo.parse("repro/bb/two.py", "import repro.aa.one\n",
                         module="repro.bb.two"),
    ])
    assert report.findings == []
    assert report.suppressed == 1


# -- stable output ordering ---------------------------------------------------

def test_findings_sorted_regardless_of_input_order():
    """Identical byte output however files are discovered."""
    sources = _modules(**{
        "repro.zz.one": "import repro.zz.two\n",
        "repro.zz.two": "import repro.zz.one\n",
        "repro.aa.one": "import repro.aa.two\n",
        "repro.aa.two": "import repro.aa.one\n",
    })
    forward = lint_sources(sources)
    reverse = lint_sources(list(reversed(sources)))
    assert len(forward.findings) == 2
    assert forward.render_text() == reverse.render_text()
    keys = [(f.file, f.line, f.rule_id, f.message)
            for f in forward.findings]
    assert keys == sorted(keys)


def test_parse_errors_render_sorted(tmp_path):
    for name in ("zz_bad.py", "aa_bad.py"):
        (tmp_path / name).write_text("def broken(:\n")
    report = lint_paths([str(tmp_path)])
    assert len(report.parse_errors) == 2
    assert report.parse_errors == sorted(report.parse_errors)
    assert "aa_bad.py" in report.parse_errors[0]


# -- catalogue, suppression syntax, report plumbing ---------------------------

def test_rules_are_exactly_import_cycle():
    assert [rule.rule_id for rule in RULES] == ["import-cycle"]


def test_bare_noqa_suppresses_every_rule():
    report = lint_sources(_modules(**{
        "repro.aa.one": "import repro.bb.two  # repro: noqa\n",
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert report.findings == []
    assert report.suppressed == 1


def test_unrelated_noqa_does_not_suppress():
    report = lint_sources(_modules(**{
        "repro.aa.one": "import repro.bb.two  # repro: noqa[wall-clock]\n",
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert len(report.findings) == 1


# -- JSON output and CLI -------------------------------------------------------

def test_json_report_schema(tmp_path):
    _write_cycle(tmp_path)
    report = lint_paths([str(tmp_path)])
    payload = json.loads(report.render_json())
    assert set(payload) == {"findings", "files_checked", "suppressed",
                            "parse_errors"}
    assert payload["files_checked"] == 2
    (finding,) = payload["findings"]
    assert set(finding) == {"file", "line", "rule_id", "message"}
    assert finding["rule_id"] == "import-cycle"
    assert finding["line"] == 1


def test_cli_lint_flags_seeded_violation(tmp_path, capsys):
    _write_cycle(tmp_path)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "import-cycle" in out


def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "clean.py"
    good.write_text("def f(env):\n    yield env.timeout(1)\n")
    assert main(["lint", str(good)]) == 0


def test_cli_lint_json_output(tmp_path, capsys):
    _write_cycle(tmp_path)
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule_id"] == "import-cycle"


def test_repo_lints_clean(capsys):
    """The acceptance gate: the repo passes its own linter, over the
    same paths ``python -m repro lint`` walks in CI."""
    paths = [os.path.relpath(p, REPO_ROOT) for p in _default_lint_paths()]
    assert paths == [os.path.join("src", "repro"), "benchmarks",
                     "examples", "tests"]
    assert main(["lint"]) == 0
