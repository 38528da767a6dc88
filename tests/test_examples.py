"""Smoke tests: every example script runs to completion and reports success.

Examples are documentation that executes; these tests keep them honest.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = run_example("quickstart", capsys)
    assert "Figure 2 model check: PASS" in out
    assert "outcome: OK" in out
    assert "account balance now $801.00" in out


def test_mobile_shop_example(capsys):
    out = run_example("mobile_shop", capsys)
    assert out.count("success rate: 100%") == 2
    assert "the application code never changed" in out


def test_inventory_dispatch_example(capsys):
    out = run_example("inventory_dispatch", capsys)
    assert "Cell handoffs during the run: 1" in out
    assert "Dispatcher: OK" in out
    assert "dispatched" in out


def test_roaming_handoff_example(capsys):
    out = run_example("roaming_handoff", capsys)
    assert "download complete" in out
    assert "registered via foreign agent (accepted=True)" in out
    assert "snoop hides" in out


def test_offline_sync_example(capsys):
    out = run_example("offline_sync", capsys)
    assert "pulled 2 assignments" in out
    assert "failed cleanly" in out
    assert "pushed 3 records" in out
    assert "corroded valve" in out
