"""Requirement 4 (interoperability) and the full §1.1 report.

Runs the reference purchase over the device x middleware x bearer
matrix — every combination the model claims to support must work.
"""

import pytest

from repro.analysis import Verdict
from repro.apps import ALL_CATEGORIES, CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine, check_requirements

DEVICES = ["Palm i705", "Toshiba E740"]
MIDDLEWARES = ["WAP", "i-mode", "Palm"]
BEARERS = [("cellular", "GPRS"), ("wlan", "802.11b")]


def purchase_scenario(device, middleware, bearer) -> bool:
    system = MCSystemBuilder(seed=0, middleware=middleware,
                             bearer=bearer).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 500_000)
    handle = system.add_station(device)
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=600)
    return done.triggered and done.value.ok


@pytest.fixture(scope="module")
def matrix():
    """{(device, middleware, bearer name): the purchase worked}."""
    return {
        (device, middleware, bearer[1]):
            purchase_scenario(device, middleware, bearer)
        for device in DEVICES
        for middleware in MIDDLEWARES
        for bearer in BEARERS
    }


def test_every_combination_works(matrix):
    failing = sorted(key for key, ok in matrix.items() if not ok)
    assert not failing, f"non-interoperable combinations: {failing}"
    assert len(matrix) == len(DEVICES) * len(MIDDLEWARES) * len(BEARERS)


def test_full_requirements_report_passes(matrix):
    """All five §1.1 requirements PASS on the reference system with
    every Table 1 category mounted."""
    system = MCSystemBuilder(middleware="WAP",
                             bearer=("cellular", "GPRS")).build()
    shop = CommerceApp()
    system.mount_application(shop)
    for name, cls in ALL_CATEGORIES.items():
        if name != "commerce":
            system.mount_application(cls())
    system.host.payment.open_account("ann", 500_000)
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    assert done.value.ok

    # Requirement 5 evidence: the same flow on two different stacks.
    outcomes = {}
    for label, middleware, bearer in [
        ("stack-a", "WAP", ("cellular", "GPRS")),
        ("stack-b", "i-mode", ("wlan", "802.11b")),
    ]:
        other = MCSystemBuilder(middleware=middleware,
                                bearer=bearer).build()
        other_shop = CommerceApp()
        other.mount_application(other_shop)
        other.host.payment.open_account("ann", 500_000)
        other_handle = other.add_station("Toshiba E740")
        other_engine = TransactionEngine(other)
        other_done = other_engine.run_flow(
            other_handle, other_shop.browse_and_buy(account="ann"))
        other.run(until=600)
        assert other_done.value.ok
        outcomes[label] = other_done.value.result

    report = check_requirements(
        system, engine,
        interop_matrix=matrix,
        independence_outcomes=outcomes,
    )
    assert report.verdict is Verdict.PASS, report.render_text()
