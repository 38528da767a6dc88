"""Every pin in ``tests/pins.json`` against a fresh run (README, "Pins"),
but the ``workload`` rows: six full-size worker runs (~30 s) that CI
checks, over code paths pinned here at 20 users."""

import json

import pytest

from repro.faults.chaos import SCENARIOS
from tests.pins import LEDGER, PRODUCERS

PINS = json.loads(LEDGER.read_text())


def test_ledger_and_producers_name_the_same_pins():
    assert sorted(PINS) == sorted(PRODUCERS)
    assert {f"shoppers/chaos-{name}" for name in SCENARIOS} <= set(PRODUCERS)


@pytest.mark.parametrize("name", sorted(
    name for name in PRODUCERS if not name.startswith("workload/")))
def test_pin(name):
    assert PRODUCERS[name]() == PINS[name]
