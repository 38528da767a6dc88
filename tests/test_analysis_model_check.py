"""Tests for the static model checker: reference builds all-PASS,
deliberately broken systems FAIL with evidence, thin models are
INCONCLUSIVE."""

import json

import pytest

from repro.__main__ import main
from repro.analysis import (
    ModelChecker,
    Verdict,
    check_reference_systems,
)
from repro.apps import CommerceApp
from repro.core import (
    Component,
    ComponentKind,
    EDGE_DATA_FLOW,
    MCSystemBuilder,
    SystemModel,
)
from repro.core.requirements import (
    R1,
    R2,
    R3,
    R4,
    R5,
    STRUCTURAL_CLAIMS,
    claims_for_figure,
)


def build_mc(middleware="WAP", with_app=True, with_station=True):
    system = MCSystemBuilder(middleware=middleware).build()
    if with_app:
        system.mount_application(CommerceApp())
    if with_station:
        system.add_station("Toshiba E740")
    return system


# -- reference builds ----------------------------------------------------------

def test_reference_builds_all_pass():
    reports = check_reference_systems()
    assert set(reports) == {"ec", "mc"}
    for report in reports.values():
        assert report.failures == []
        assert report.verdict is Verdict.PASS


def test_every_figure_claim_gets_a_verdict():
    reports = check_reference_systems()
    for figure, report in reports.items():
        decided = {r.claim.claim_id for r in report.results}
        expected = {c.claim_id for c in claims_for_figure(figure)}
        assert decided == expected


def test_all_middlewares_pass_table3_compat():
    for middleware in ("WAP", "i-mode", "Palm"):
        system = build_mc(middleware=middleware)
        report = ModelChecker.for_system(system).run()
        result = report.result("MC-MIDDLEWARE-COMPAT")
        assert result.verdict is Verdict.PASS, result.evidence


# -- seeded failures ----------------------------------------------------------

def test_wap_without_gateway_host_fails():
    """The headline broken fixture: WAP declared, no gateway mounted."""
    system = build_mc(middleware="WAP")
    system.model.component("mobile-middleware").implementation = None
    report = ModelChecker.for_system(system).run()
    result = report.result("MC-MIDDLEWARE-COMPAT")
    assert result.verdict is Verdict.FAIL
    assert "gateway" in result.evidence
    assert report.verdict is Verdict.FAIL


def test_wrong_gateway_family_fails():
    wap = build_mc(middleware="WAP")
    imode = build_mc(middleware="i-mode")
    # Terminate WAP sessions at an i-mode centre: Table 3 violation.
    wap.model.component("mobile-middleware").implementation = \
        imode.model.component("mobile-middleware").implementation
    result = ModelChecker.for_system(wap).run() \
        .result("MC-MIDDLEWARE-COMPAT")
    assert result.verdict is Verdict.FAIL
    assert "IModeCenter" in result.evidence


def test_unhosted_gateway_fails():
    system = build_mc(middleware="WAP")
    gateway = system.model.component("mobile-middleware").implementation
    gateway.node = None
    result = ModelChecker.for_system(system).run() \
        .result("MC-MIDDLEWARE-COMPAT")
    assert result.verdict is Verdict.FAIL
    assert "not hosted" in result.evidence


def test_dangling_edge_fails():
    system = build_mc()
    model = system.model
    model._edges.append(type(model.edges()[0])(
        "mobile-stations", "ghost-component", EDGE_DATA_FLOW))
    result = ModelChecker.for_system(system).run().result("EDGES-RESOLVED")
    assert result.verdict is Verdict.FAIL
    assert "ghost-component" in result.evidence


def test_unreachable_component_fails():
    system = build_mc()
    system.model.add(Component(ComponentKind.HOST_COMPUTERS,
                               "orphan-host"))
    result = ModelChecker.for_system(system).run().result("REACHABLE")
    assert result.verdict is Verdict.FAIL
    assert "orphan-host" in result.evidence


def test_missing_flow_fails():
    model = SystemModel(name="broken")
    for kind, name in [
        (ComponentKind.USERS, "users"),
        (ComponentKind.MOBILE_STATIONS, "stations"),
        (ComponentKind.WIRELESS_NETWORKS, "radio"),
        (ComponentKind.WIRED_NETWORKS, "wire"),
        (ComponentKind.HOST_COMPUTERS, "host"),
        (ComponentKind.APPLICATIONS, "app"),
    ]:
        model.add(Component(kind, name))
    # users -> stations only; the chain stops dead at the bearer.
    model.connect("users", "stations", EDGE_DATA_FLOW)
    report = ModelChecker(model, figure="mc").run()
    assert report.result("MC-FLOW").verdict is Verdict.FAIL
    assert report.result("MC-STATION-BEARER").verdict is Verdict.FAIL


def test_ec_with_wireless_fails():
    from repro.core import ECSystemBuilder

    system = ECSystemBuilder().build()
    system.mount_application(CommerceApp())
    system.add_client()
    system.model.add(Component(ComponentKind.WIRELESS_NETWORKS,
                               "rogue-radio"))
    report = ModelChecker(system.model, figure="ec", system=system).run()
    assert report.result("EC-NO-WIRELESS").verdict is Verdict.FAIL


# -- inconclusive territory ----------------------------------------------------

def test_empty_model_is_inconclusive_not_crashing():
    model = SystemModel(name="empty")
    report = ModelChecker(model, figure="mc").run()
    assert report.result("MC-APP-HOSTED").verdict is Verdict.INCONCLUSIVE
    assert report.result("REACHABLE").verdict is Verdict.INCONCLUSIVE
    assert report.result("MC-COMPONENTS").verdict is Verdict.FAIL
    assert report.verdict is Verdict.FAIL


def test_bare_model_without_declared_kind_is_inconclusive():
    model = SystemModel(name="bare")
    report = ModelChecker(model, figure="mc").run()
    assert report.result("MC-MIDDLEWARE-COMPAT").verdict \
        is Verdict.INCONCLUSIVE


# -- verdict algebra and plumbing ---------------------------------------------

def test_verdict_aggregation():
    assert Verdict.aggregate([]) is Verdict.PASS
    assert Verdict.aggregate([Verdict.PASS, Verdict.PASS]) is Verdict.PASS
    assert Verdict.aggregate(
        [Verdict.PASS, Verdict.INCONCLUSIVE]) is Verdict.INCONCLUSIVE
    assert Verdict.aggregate(
        [Verdict.INCONCLUSIVE, Verdict.FAIL, Verdict.PASS]) is Verdict.FAIL


def test_figure_inference():
    mc = build_mc()
    assert ModelChecker(mc.model).figure == "mc"
    from repro.core import ECSystemBuilder

    ec = ECSystemBuilder().build()
    assert ModelChecker(ec.model).figure == "ec"


def test_claim_matrix_lookup():
    assert {c.claim_id for c in STRUCTURAL_CLAIMS} >= {
        "EC-COMPONENTS", "MC-COMPONENTS", "MC-MIDDLEWARE-COMPAT",
        "HOST-INTERNALS", "EDGES-RESOLVED", "REACHABLE",
    }
    with pytest.raises(ValueError):
        claims_for_figure("figure-3")


def test_claim_ids_are_unique():
    """One claim list, one check per claim: a reused id would let one
    check answer for two claims in ``ModelCheckReport.result``."""
    ids = [c.claim_id for c in STRUCTURAL_CLAIMS + (R1, R2, R3, R4, R5)]
    assert len(ids) == len(set(ids)), ids
    assert all(c.reference == "§1.1" and not c.figures
               for c in (R1, R2, R3, R4, R5))


def test_report_json_roundtrip():
    for figure, report in check_reference_systems().items():
        payload = json.loads(report.render_json())
        assert payload["figure"] == figure
        assert payload["verdict"] == "pass"
        assert [r["claim_id"] for r in payload["results"]] == \
            [c.claim_id for c in claims_for_figure(figure)]
        for row in payload["results"]:
            assert set(row) == {"claim_id", "reference", "description",
                                "verdict", "evidence"}


def test_report_unknown_claim_raises():
    report = ModelChecker.for_system(build_mc()).run()
    with pytest.raises(KeyError):
        report.result("NO-SUCH-CLAIM")


# -- CLI -----------------------------------------------------------------------

def test_cli_check_text(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "reference builds: PASS" in out
    assert "MC-MIDDLEWARE-COMPAT" in out
    assert "Figure 2" in out


def test_cli_check_json(capsys):
    assert main(["check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mc"]["verdict"] == "pass"
    assert payload["ec"]["verdict"] == "pass"
