"""Tests for the component taxonomy, system-model graph and the
structural claims decided on hand-built graphs."""

import pytest

from repro.analysis import ModelChecker, Verdict
from repro.core import (
    Component,
    ComponentKind,
    EDGE_ASSOCIATION,
    EDGE_DATA_FLOW,
    SystemModel,
    render_flow_chain,
    render_structure,
)
from repro.core.model import EC_FLOW_CHAIN, MC_FLOW_CHAIN

# The claims a hand-built graph can decide: presence, host internals,
# the flow chain and (MC) application hosting or (EC) no wireless part.
# The graphs below carry no middleware implementation and no host-part
# edges, so REACHABLE and MC-MIDDLEWARE-COMPAT are out of their scope.
FIGURE_CLAIMS = {
    "mc": ("MC-COMPONENTS", "MC-FLOW", "MC-APP-HOSTED", "HOST-INTERNALS"),
    "ec": ("EC-COMPONENTS", "EC-FLOW", "EC-NO-WIRELESS", "HOST-INTERNALS"),
}


def check(model, figure):
    """Claim id -> CheckResult for the figure's graph-level claims."""
    report = ModelChecker(model, figure=figure).run()
    return {cid: report.result(cid) for cid in FIGURE_CLAIMS[figure]}


def failing(results):
    return {cid for cid, r in results.items() if r.verdict is not Verdict.PASS}


def minimal_mc_model():
    model = SystemModel("test-mc")
    for kind, name in [
        (ComponentKind.USERS, "users"),
        (ComponentKind.MOBILE_STATIONS, "stations"),
        (ComponentKind.MOBILE_MIDDLEWARE, "gateway"),
        (ComponentKind.WIRELESS_NETWORKS, "wlan"),
        (ComponentKind.WIRED_NETWORKS, "internet"),
        (ComponentKind.HOST_COMPUTERS, "host-computers"),
        (ComponentKind.WEB_SERVERS, "web"),
        (ComponentKind.DATABASE_SERVERS, "db"),
        (ComponentKind.APPLICATION_PROGRAMS, "programs"),
        (ComponentKind.APPLICATIONS, "app:shop"),
    ]:
        model.add(Component(kind, name))
    model.connect("users", "stations", EDGE_DATA_FLOW)
    model.connect("stations", "wlan", EDGE_DATA_FLOW)
    model.connect("wlan", "internet", EDGE_DATA_FLOW)
    model.connect("internet", "host-computers", EDGE_DATA_FLOW)
    model.connect("app:shop", "host-computers", EDGE_ASSOCIATION)
    return model


def test_component_kind_validated():
    with pytest.raises(ValueError):
        Component("flying_cars", "x")


def test_duplicate_component_rejected():
    model = SystemModel()
    model.add(Component(ComponentKind.USERS, "users"))
    with pytest.raises(ValueError):
        model.add(Component(ComponentKind.USERS, "users"))


def test_edge_requires_known_components():
    model = SystemModel()
    model.add(Component(ComponentKind.USERS, "users"))
    with pytest.raises(KeyError):
        model.connect("users", "ghost")


def test_edge_kind_validated():
    model = minimal_mc_model()
    with pytest.raises(ValueError):
        model.connect("users", "stations", "teleport")


def test_valid_mc_model_passes():
    results = check(minimal_mc_model(), "mc")
    assert not failing(results), results


def test_missing_component_detected():
    model = minimal_mc_model()
    model._components.pop("wlan")
    model._edges = [e for e in model._edges
                    if "wlan" not in (e.source, e.target)]
    results = check(model, "mc")
    assert "MC-COMPONENTS" in failing(results)
    assert "wireless_networks" in results["MC-COMPONENTS"].evidence


def test_broken_flow_chain_detected():
    model = minimal_mc_model()
    model._edges = [e for e in model._edges
                    if not (e.source == "wlan" and e.target == "internet")]
    results = check(model, "mc")
    assert failing(results) == {"MC-FLOW"}
    assert results["MC-FLOW"].verdict is Verdict.FAIL


def test_middleware_is_optional_in_mc():
    model = minimal_mc_model()
    model._components.pop("gateway")
    model._edges = [e for e in model._edges
                    if "gateway" not in (e.source, e.target)]
    results = check(model, "mc")
    assert not failing(results), results


def test_application_must_reach_host():
    model = minimal_mc_model()
    model._edges = [e for e in model._edges if e.source != "app:shop"]
    results = check(model, "mc")
    assert failing(results) == {"MC-APP-HOSTED"}
    assert "app:shop" in results["MC-APP-HOSTED"].evidence


def test_ec_validation_rejects_wireless():
    model = SystemModel("test-ec")
    for kind, name in [
        (ComponentKind.USERS, "users"),
        (ComponentKind.CLIENT_COMPUTERS, "desktops"),
        (ComponentKind.WIRED_NETWORKS, "internet"),
        (ComponentKind.HOST_COMPUTERS, "host-computers"),
        (ComponentKind.WEB_SERVERS, "web"),
        (ComponentKind.DATABASE_SERVERS, "db"),
        (ComponentKind.APPLICATION_PROGRAMS, "programs"),
        (ComponentKind.APPLICATIONS, "app:shop"),
    ]:
        model.add(Component(kind, name))
    model.connect("users", "desktops", EDGE_DATA_FLOW)
    model.connect("desktops", "internet", EDGE_DATA_FLOW)
    model.connect("internet", "host-computers", EDGE_DATA_FLOW)
    assert not failing(check(model, "ec"))

    model.add(Component(ComponentKind.WIRELESS_NETWORKS, "rogue-wlan"))
    results = check(model, "ec")
    assert failing(results) == {"EC-NO-WIRELESS"}
    assert results["EC-NO-WIRELESS"].verdict is Verdict.FAIL
    assert "rogue-wlan" in results["EC-NO-WIRELESS"].evidence


def test_neighbours_and_flow_path():
    model = minimal_mc_model()
    assert set(model.neighbours("stations", EDGE_DATA_FLOW)) == \
        {"users", "wlan"}
    assert model.flow_path_exists(MC_FLOW_CHAIN)
    assert not model.flow_path_exists(EC_FLOW_CHAIN)


def test_render_structure_mentions_everything():
    model = minimal_mc_model()
    text = render_structure(model, title="MC system")
    assert "MC system" in text
    for name in ("users", "stations", "wlan", "internet", "host-computers"):
        assert name in text
    # Optional components render in parentheses.
    model.component("gateway").optional = True
    text = render_structure(model)
    assert "( gateway )" in text


def test_render_flow_chain():
    model = minimal_mc_model()
    line = render_flow_chain(model, MC_FLOW_CHAIN)
    assert line.startswith("users")
    assert "host-computers" in line
    assert "<==>" in line
