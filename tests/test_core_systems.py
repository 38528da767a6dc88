"""Integration tests: built EC/MC systems, transactions, requirements."""

import pytest

from repro.analysis import ModelChecker, Verdict
from repro.apps import ALL_CATEGORIES, CommerceApp
from repro.core import (
    ECSystemBuilder,
    MCSystemBuilder,
    TransactionEngine,
    check_requirements,
)
from repro.core.model import EC_FLOW_CHAIN, MC_FLOW_CHAIN


def build_mc(**kwargs):
    defaults = dict(middleware="WAP", bearer=("cellular", "GPRS"))
    defaults.update(kwargs)
    system = MCSystemBuilder(**defaults).build()
    app = CommerceApp()
    system.mount_application(app)
    system.host.payment.open_account("ann", 1_000_000)
    return system, app


def run_one_purchase(system, app, handle):
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, app.browse_and_buy(account="ann"))
    system.run(until=system.sim.now + 300)
    assert done.triggered
    return engine, done.value


def test_mc_system_validates_against_figure2():
    system, app = build_mc()
    system.add_station("Palm i705")
    report = ModelChecker.for_system(system, figure="mc").run()
    assert report.verdict is Verdict.PASS, report.render_text()
    assert system.model.flow_path_exists(MC_FLOW_CHAIN)


def test_ec_system_validates_against_figure1():
    system = ECSystemBuilder().build()
    app = CommerceApp()
    system.mount_application(app)
    system.add_client()
    report = ModelChecker.for_system(system, figure="ec").run()
    assert report.verdict is Verdict.PASS, report.render_text()
    assert system.model.flow_path_exists(EC_FLOW_CHAIN)


def test_mc_purchase_over_wap_gprs():
    system, app = build_mc()
    handle = system.add_station("Toshiba E740")
    engine, record = run_one_purchase(system, app, handle)
    assert record.ok, record.error
    assert record.requests == 3
    assert record.render_seconds > 0


def test_mc_purchase_over_imode_wlan():
    system, app = build_mc(middleware="i-mode", bearer=("wlan", "802.11b"))
    handle = system.add_station("Nokia 9290 Communicator")
    engine, record = run_one_purchase(system, app, handle)
    assert record.ok, record.error


def test_ec_purchase_from_desktop():
    system = ECSystemBuilder().build()
    app = CommerceApp()
    system.mount_application(app)
    system.host.payment.open_account("ann", 1_000_000)
    client = system.add_client()
    engine = TransactionEngine(system)
    done = engine.run_flow(client, app.browse_and_buy(account="ann"))
    system.run(until=60)
    record = done.value
    assert record.ok, record.error
    # Desktops have no microbrowser: no device render cost.
    assert record.render_seconds == 0


def test_purchase_decrements_stock_and_charges_account():
    system, app = build_mc()
    handle = system.add_station("Toshiba E740")
    engine, record = run_one_purchase(system, app, handle)
    assert record.ok
    from repro.db import execute
    rows = execute(system.host.db_server.database,
                   "SELECT stock FROM shop_items WHERE id = 1").rows
    assert rows[0]["stock"] == 9
    assert system.host.payment.balance("ann") == 1_000_000 - 19_900


def test_declined_payment_fails_transaction():
    system, app = build_mc()
    system.host.payment.accounts["ann"] = 10  # not enough for anything
    handle = system.add_station("Toshiba E740")
    engine, record = run_one_purchase(system, app, handle)
    assert not record.ok
    assert "purchase failed" in record.error


def test_slower_device_slower_transaction():
    def latency(device):
        system, app = build_mc()
        handle = system.add_station(device)
        _, record = run_one_purchase(system, app, handle)
        assert record.ok
        return record.render_seconds

    assert latency("Palm i705") > latency("Toshiba E740")


def test_cellular_2g_slower_than_3g():
    def latency(bearer):
        system, app = build_mc(bearer=bearer)
        handle = system.add_station("Toshiba E740")
        _, record = run_one_purchase(system, app, handle)
        assert record.ok, record.error
        return record.latency

    assert latency(("cellular", "GSM")) > latency(("cellular", "WCDMA"))


def test_engine_aggregates():
    system, app = build_mc()
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    e1 = engine.run_flow(handle, app.browse_and_buy(account="ann"))
    system.run(until=300)
    e2 = engine.run_flow(handle, app.browse_and_buy(item_id=2,
                                                    account="ann"))
    system.run(until=600)
    assert engine.success_rate() == 1.0
    assert len(engine.latencies()) == 2


def test_all_eight_categories_mount_and_run():
    system, _ = build_mc(bearer=("cellular", "WCDMA"))
    apps = {}
    for name, cls in ALL_CATEGORIES.items():
        if name == "commerce":
            continue  # mounted by build_mc
        app = cls()
        system.mount_application(app)
        apps[name] = app
    handle = system.add_station("Compaq iPAQ H3870")
    engine = TransactionEngine(system)
    flows = [
        apps["education"].attend_class(),
        apps["erp"].manage_resources(),
        apps["entertainment"].buy_and_download(),
        apps["healthcare"].rounds(),
        apps["inventory"].driver_rounds(),
        apps["traffic"].navigate(),
        apps["travel"].book_trip(),
    ]
    records = []

    def runner(env):
        for flow in flows:
            record = yield engine.run_flow(handle, flow)
            records.append(record)

    system.sim.spawn(runner(system.sim))
    system.run(until=900)
    assert len(records) == 7
    failed = [(r.flow_name, r.error) for r in records if not r.ok]
    assert not failed, failed
    mounted = {app.category for app in system.applications}
    assert mounted == set(ALL_CATEGORIES)


def test_requirements_report():
    system, app = build_mc()
    for name, cls in ALL_CATEGORIES.items():
        if name != "commerce":  # mounted by build_mc
            system.mount_application(cls())
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, app.browse_and_buy(account="ann", user="ann"))
    system.run(until=300)
    assert done.value.ok

    interop = {("Toshiba E740", "WAP", "GPRS"): True}
    outcomes = {"wap-gprs": {"status": 200}, "imode-wlan": {"status": 200}}
    report = check_requirements(
        system, engine,
        interop_matrix=interop,
        independence_outcomes=outcomes,
    )
    assert report.verdict is Verdict.PASS, report.render_text()
    assert [r.claim.claim_id for r in report.results] == \
        ["R1", "R2", "R3", "R4", "R5"]


def test_requirements_fail_without_evidence():
    system, app = build_mc()
    engine = TransactionEngine(system)
    report = check_requirements(system, engine)
    assert report.result("R1").verdict is Verdict.FAIL  # no transactions
    # An absent check is not a passed check.
    assert report.result("R4").verdict is Verdict.INCONCLUSIVE  # no matrix
    assert report.result("R5").verdict is Verdict.INCONCLUSIVE  # no stacks
    assert report.verdict is Verdict.FAIL


def test_r3_fails_with_one_category_mounted():
    system, app = build_mc()
    report = check_requirements(system, TransactionEngine(system))
    r3 = report.result("R3")
    assert r3.verdict is Verdict.FAIL
    missing = sorted(set(ALL_CATEGORIES) - {"commerce"})
    assert len(missing) == 7
    assert f"missing: {missing}" in r3.evidence


def test_builder_rejects_bad_config():
    with pytest.raises(ValueError):
        MCSystemBuilder(middleware="carrier-pigeon")
    with pytest.raises(ValueError):
        MCSystemBuilder(bearer=("quantum", "entanglement"))


def test_program_data_independence_outcome_equality():
    """The same flow yields the same business outcome on two stacks."""
    outcomes = {}
    for label, middleware, bearer in [
        ("wap-gprs", "WAP", ("cellular", "GPRS")),
        ("imode-wlan", "i-mode", ("wlan", "802.11g")),
    ]:
        system, app = build_mc(middleware=middleware, bearer=bearer)
        handle = system.add_station("Toshiba E740")
        _, record = run_one_purchase(system, app, handle)
        assert record.ok, (label, record.error)
        outcomes[label] = record.result
    assert outcomes["wap-gprs"] == outcomes["imode-wlan"]
