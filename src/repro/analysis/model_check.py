"""Static model checker: verdicts over a built-but-not-run system graph.

Every structural claim the paper's figures and tables make
(:data:`repro.core.requirements.STRUCTURAL_CLAIMS`) is decided against
a :class:`~repro.core.model.SystemModel` *before* simulation: dangling
edges, missing components, middleware/bearer incompatibilities (a WAP
deployment without a hosted gateway, an i-mode centre that cannot adapt
to cHTML), unreachable components, applications mounted without a host,
and stations with no attachable bearer.  The verdicts are the claim
vocabulary of :mod:`repro.core.requirements`: ``PASS`` (claim holds),
``FAIL`` (claim demonstrably violated), ``INCONCLUSIVE`` (the graph
does not yet contain enough structure to decide).
"""

from __future__ import annotations

from typing import Optional

from ..core.components import (
    ComponentKind,
    EC_COMPONENTS,
    EDGE_DATA_FLOW,
    MC_COMPONENTS,
    MC_OPTIONAL_COMPONENTS,
)
from ..core.model import EC_FLOW_CHAIN, MC_FLOW_CHAIN, SystemModel
from ..core.requirements import (
    CheckResult,
    ModelCheckReport,
    Verdict,
    claims_for_figure,
)

__all__ = ["ModelChecker", "check_reference_systems"]

# Table 3 families: middleware kind -> expected gateway class name.
MIDDLEWARE_GATEWAYS = {
    "WAP": "WAPGateway",
    "i-mode": "IModeCenter",
    "Palm": "WebClippingProxy",
}


class ModelChecker:
    """Decides every applicable structural claim for one model.

    ``system`` is the (optional) built system the model belongs to; when
    given, declared intent such as ``middleware_kind`` sharpens the
    Table 3 compatibility check from INCONCLUSIVE to PASS/FAIL.
    """

    def __init__(self, model: SystemModel, figure: Optional[str] = None,
                 system=None):
        self.model = model
        self.system = system
        self.figure = figure or self._infer_figure()

    @classmethod
    def for_system(cls, system, figure: Optional[str] = None) \
            -> "ModelChecker":
        return cls(system.model, figure=figure, system=system)

    def _infer_figure(self) -> str:
        mobile = (self.model.has_kind(ComponentKind.MOBILE_STATIONS)
                  or self.model.has_kind(ComponentKind.WIRELESS_NETWORKS))
        if not mobile and self.model.has_kind(ComponentKind.CLIENT_COMPUTERS):
            return "ec"
        return "mc"

    def run(self) -> ModelCheckReport:
        report = ModelCheckReport(figure=self.figure,
                                  model_name=self.model.name)
        checks = {
            "EC-COMPONENTS": self._check_ec_components,
            "EC-NO-WIRELESS": self._check_ec_no_wireless,
            "EC-FLOW": self._check_ec_flow,
            "MC-COMPONENTS": self._check_mc_components,
            "MC-FLOW": self._check_mc_flow,
            "MC-APP-HOSTED": self._check_app_hosted,
            "MC-STATION-BEARER": self._check_station_bearer,
            "MC-MIDDLEWARE-COMPAT": self._check_middleware_compat,
            "MC-MIDDLEWARE-PROPS": self._check_middleware_props,
            "HOST-INTERNALS": self._check_host_internals,
            "EDGES-RESOLVED": self._check_edges_resolved,
            "REACHABLE": self._check_reachable,
        }
        for claim in claims_for_figure(self.figure):
            verdict, evidence = checks[claim.claim_id]()
            report.results.append(CheckResult(claim, verdict, evidence))
        return report

    # -- figure decompositions --------------------------------------------
    def _missing_kinds(self, required: tuple,
                       optional: frozenset) -> list[str]:
        return [k for k in required
                if k not in optional and not self.model.has_kind(k)]

    def _check_ec_components(self):
        missing = self._missing_kinds(EC_COMPONENTS, frozenset())
        if missing:
            return Verdict.FAIL, f"missing component kind(s): {missing}"
        return Verdict.PASS, "all four Figure 1 components present"

    def _check_mc_components(self):
        missing = self._missing_kinds(MC_COMPONENTS, MC_OPTIONAL_COMPONENTS)
        if missing:
            return Verdict.FAIL, f"missing component kind(s): {missing}"
        return Verdict.PASS, "all required Figure 2 components present"

    def _check_ec_no_wireless(self):
        wireless = self.model.components(ComponentKind.WIRELESS_NETWORKS)
        if wireless:
            return Verdict.FAIL, (
                "EC model contains wireless component(s): "
                f"{[c.name for c in wireless]}")
        return Verdict.PASS, "no wireless networks component"

    # -- data/control flow ----------------------------------------------------
    def _check_flow(self, chain: tuple):
        if not self.model.components(chain[0]):
            return Verdict.INCONCLUSIVE, (
                f"no {chain[0]} component to trace the flow from")
        if self.model.flow_path_exists(chain):
            return Verdict.PASS, (
                "data-flow path exists: " + " -> ".join(chain))
        return Verdict.FAIL, (
            "no data-flow path " + " -> ".join(chain))

    def _check_ec_flow(self):
        return self._check_flow(EC_FLOW_CHAIN)

    def _check_mc_flow(self):
        return self._check_flow(MC_FLOW_CHAIN)

    # -- composition soundness ---------------------------------------------
    def _check_edges_resolved(self):
        dangling = self.model.dangling_edges()
        if dangling:
            shown = [f"{e.source}->{e.target}" for e in dangling]
            return Verdict.FAIL, f"dangling edge(s): {shown}"
        return Verdict.PASS, (
            f"all {len(self.model.edges())} edges connect known components")

    def _check_reachable(self):
        if not self.model.components(ComponentKind.USERS):
            return Verdict.INCONCLUSIVE, "model has no users component"
        orphans = self.model.unreachable_components(ComponentKind.USERS)
        if orphans:
            return Verdict.FAIL, (
                f"component(s) unreachable from users: {orphans}")
        total = len(self.model.components())
        return Verdict.PASS, f"all {total} components reachable from users"

    def _check_host_internals(self):
        if not self.model.has_kind(ComponentKind.HOST_COMPUTERS):
            return Verdict.FAIL, "no host computers component"
        missing = [k for k in (ComponentKind.WEB_SERVERS,
                               ComponentKind.DATABASE_SERVERS,
                               ComponentKind.APPLICATION_PROGRAMS)
                   if not self.model.has_kind(k)]
        if missing:
            return Verdict.FAIL, f"host computers lack: {missing}"
        return Verdict.PASS, ("host contains web servers, database servers "
                              "and application programs")

    def _check_app_hosted(self):
        apps = self.model.components(ComponentKind.APPLICATIONS)
        if not apps:
            return Verdict.INCONCLUSIVE, "no applications mounted yet"
        unhosted = []
        for app in apps:
            kinds = {self.model.component(n).kind
                     for n in self.model.neighbours(app.name)
                     if n in {c.name for c in self.model.components()}}
            if ComponentKind.HOST_COMPUTERS not in kinds:
                unhosted.append(app.name)
        if unhosted:
            return Verdict.FAIL, (
                f"application(s) without a host computer: {unhosted}")
        return Verdict.PASS, (
            f"all {len(apps)} application(s) associated with a host")

    def _check_station_bearer(self):
        stations = self.model.components(ComponentKind.MOBILE_STATIONS)
        if not stations:
            return Verdict.INCONCLUSIVE, "no mobile stations component"
        detached = []
        for station in stations:
            bearer_kinds = {
                self.model.component(n).kind
                for n in self.model.neighbours(station.name, EDGE_DATA_FLOW)
                if n in {c.name for c in self.model.components()}
            }
            if ComponentKind.WIRELESS_NETWORKS not in bearer_kinds:
                detached.append(station.name)
        if detached:
            return Verdict.FAIL, (
                f"station component(s) with no attachable bearer: "
                f"{detached}")
        return Verdict.PASS, "every station component reaches a bearer"

    # -- Table 3 middleware compatibility -------------------------------------
    def _declared_middleware_kind(self) -> Optional[str]:
        return getattr(self.system, "middleware_kind", None)

    def _check_middleware_compat(self):
        kind = self._declared_middleware_kind()
        gateways = self.model.components(ComponentKind.MOBILE_MIDDLEWARE)
        if not gateways:
            if kind in MIDDLEWARE_GATEWAYS:
                return Verdict.FAIL, (
                    f"system declares {kind} sessions but mounts no "
                    "middleware gateway component")
            return Verdict.INCONCLUSIVE, (
                "middleware is optional and none is mounted")
        problems = []
        for gateway in gateways:
            impl = gateway.implementation
            if impl is None:
                problems.append(
                    f"{gateway.name}: no gateway implementation "
                    "(WAP needs a hosted WAP gateway)")
                continue
            impl_cls = type(impl).__name__
            if kind in MIDDLEWARE_GATEWAYS and \
                    impl_cls != MIDDLEWARE_GATEWAYS[kind]:
                problems.append(
                    f"{gateway.name}: {kind} sessions terminate at "
                    f"{impl_cls}, expected {MIDDLEWARE_GATEWAYS[kind]}")
            if getattr(impl, "node", None) is None:
                problems.append(
                    f"{gateway.name}: gateway is not hosted on any node")
            if impl_cls == "IModeCenter" and \
                    not callable(getattr(impl, "_adapt", None)):
                problems.append(
                    f"{gateway.name}: i-mode centre lacks cHTML "
                    "adaptation")
        if problems:
            return Verdict.FAIL, "; ".join(problems)
        if kind is None:
            return Verdict.PASS, (
                "mounted gateway(s) hosted and self-consistent "
                "(no declared session kind to cross-check)")
        return Verdict.PASS, (
            f"{kind} sessions terminate at a hosted "
            f"{MIDDLEWARE_GATEWAYS.get(kind, 'gateway')}")

    def _check_middleware_props(self):
        """Cross-validate built middleware against Table 3's properties."""
        from ..middleware import TABLE3_PROPERTIES

        kind = self._declared_middleware_kind()
        if kind not in TABLE3_PROPERTIES:
            return Verdict.INCONCLUSIVE, (
                "no declared Table 3 middleware kind to validate against")
        gateways = self.model.components(ComponentKind.MOBILE_MIDDLEWARE)
        implementations = [g for g in gateways if g.implementation is not None]
        if not implementations:
            return Verdict.INCONCLUSIVE, (
                "no middleware implementation mounted to inspect")
        expected = TABLE3_PROPERTIES[kind]
        problems = []
        for gateway in implementations:
            impl = gateway.implementation
            for prop, want in expected.items():
                have = getattr(impl, prop, None)
                if have != want:
                    problems.append(
                        f"{gateway.name}: {prop}={have!r}, Table 3 "
                        f"says {want!r}")
        # Device-side sessions must agree on the session model (a
        # resilient composite is judged by its primary route).
        for handle in getattr(self.system, "stations", None) or []:
            session = getattr(handle, "session", None)
            if session is None:
                continue
            routes = getattr(session, "routes", None)
            if routes:
                session = routes[0]
            have = getattr(session, "session_model", None)
            if have != expected["session_model"]:
                name = getattr(getattr(handle, "station", None), "name",
                               "station")
                problems.append(
                    f"{name} session: session_model={have!r}, Table 3 "
                    f"says {expected['session_model']!r}")
        if problems:
            return Verdict.FAIL, "; ".join(problems)
        return Verdict.PASS, (
            f"{kind} middleware matches Table 3: markup="
            f"{expected['markup']}, session={expected['session_model']}, "
            f"payload_limit={expected['payload_limit']}")


def check_reference_systems(seed: int = 0) -> dict[str, ModelCheckReport]:
    """Build the Figure 1 and Figure 2 reference systems and check both.

    Imports the builders lazily so importing :mod:`repro.analysis` does
    not pay for the whole stack.
    """
    from ..apps import CommerceApp
    from ..core import ECSystemBuilder, MCSystemBuilder

    mc = MCSystemBuilder(seed=seed).build()
    mc.mount_application(CommerceApp())
    mc.add_station("Toshiba E740")
    ec = ECSystemBuilder(seed=seed).build()
    ec.mount_application(CommerceApp())
    ec.add_client()
    return {
        "ec": ModelChecker.for_system(ec, figure="ec").run(),
        "mc": ModelChecker.for_system(mc, figure="mc").run(),
    }
