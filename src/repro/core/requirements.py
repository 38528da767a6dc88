"""The paper's claims and the one vocabulary that decides them.

Every claim the paper makes is a :class:`Claim`.  Deciding one yields a
:class:`CheckResult` (claim, :class:`Verdict`, evidence), and a
:class:`ModelCheckReport` holds the results for one system.  There are
two sets of claims:

* :data:`STRUCTURAL_CLAIMS` — the Figure 1/2 structures and Table 3's
  middleware families, decided statically over a built-but-not-run
  graph by :class:`repro.analysis.model_check.ModelChecker`;
* ``R1``…``R5`` — the five system requirements of §1.1, decided by
  :func:`check_requirements` against a built system and its
  transaction ledger:

  1. *Transactions easily, timely, ubiquitously* — every started
     transaction completed, within a latency budget, from every station.
  2. *Personalization on request* — at least one application served
     content adapted to the requesting user.
  3. *Wide application range* — all eight Table 1 categories mounted.
  4. *Maximum interoperability* — every device x middleware x bearer
     combination in the tested matrix worked.
  5. *Program/data independence* — the same application flow produced
     the same business outcome on different component stacks.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..apps import ALL_CATEGORIES
from ..sim import StatSummary

__all__ = ["Verdict", "Claim", "CheckResult", "ModelCheckReport",
           "STRUCTURAL_CLAIMS", "claims_for_figure",
           "R1", "R2", "R3", "R4", "R5", "check_requirements"]


class Verdict(enum.Enum):
    """Outcome of one claim check.

    ``INCONCLUSIVE`` means the evidence needed to decide the claim is
    absent: an absent check is not a passed check.
    """

    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"

    @staticmethod
    def aggregate(verdicts: Iterable["Verdict"]) -> "Verdict":
        """FAIL dominates, then INCONCLUSIVE; empty aggregates to PASS."""
        worst = Verdict.PASS
        for verdict in verdicts:
            if verdict is Verdict.FAIL:
                return Verdict.FAIL
            if verdict is Verdict.INCONCLUSIVE:
                worst = Verdict.INCONCLUSIVE
        return worst


@dataclass(frozen=True)
class Claim:
    """One falsifiable claim the paper's figures, tables or text make.

    ``figures`` names the reference structures a structural claim
    applies to (``"ec"``, ``"mc"`` or both); the §1.1 requirements
    apply to no static structure and leave it empty.
    """

    claim_id: str
    reference: str          # where the paper makes the claim
    description: str
    figures: tuple[str, ...] = ("ec", "mc")


@dataclass
class CheckResult:
    """One claim's verdict with human-readable evidence."""

    claim: Claim
    verdict: Verdict
    evidence: str

    def render(self) -> str:
        return (f"[{self.verdict.name:12s}] {self.claim.claim_id} "
                f"({self.claim.reference}): {self.claim.description}\n"
                f"               {self.evidence}")

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim.claim_id,
            "reference": self.claim.reference,
            "description": self.claim.description,
            "verdict": self.verdict.value,
            "evidence": self.evidence,
        }


@dataclass
class ModelCheckReport:
    """All claim verdicts for one model."""

    figure: str
    model_name: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def verdict(self) -> Verdict:
        return Verdict.aggregate(r.verdict for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.verdict is Verdict.FAIL]

    def result(self, claim_id: str) -> CheckResult:
        for r in self.results:
            if r.claim.claim_id == claim_id:
                return r
        raise KeyError(f"no claim {claim_id!r} in this report")

    def render_text(self) -> str:
        lines = [f"Model check: {self.model_name} "
                 f"({self.figure.upper()} reference structure)"]
        lines.extend(r.render() for r in self.results)
        lines.append(f"overall: {self.verdict.name} "
                     f"({len(self.failures)} failing claim(s))")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "model": self.model_name,
            "verdict": self.verdict.value,
            "results": [r.to_dict() for r in self.results],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# The static claim matrix: every Figure 1/2 and Table 3 structural
# requirement, keyed for the model checker.
STRUCTURAL_CLAIMS: tuple[Claim, ...] = (
    Claim("EC-COMPONENTS", "Figure 1",
          "an EC system contains applications, client computers, wired "
          "networks and host computers", ("ec",)),
    Claim("EC-NO-WIRELESS", "Figure 1",
          "an EC system has no wireless networks component", ("ec",)),
    Claim("EC-FLOW", "Figure 1",
          "data/control flows users -> client computers -> wired "
          "networks -> host computers", ("ec",)),
    Claim("MC-COMPONENTS", "Figure 2",
          "an MC system contains applications, mobile stations, wireless "
          "networks, wired networks and host computers (middleware "
          "optional)", ("mc",)),
    Claim("MC-FLOW", "Figure 2",
          "data/control flows users -> mobile stations -> wireless "
          "networks -> wired networks -> host computers", ("mc",)),
    Claim("MC-APP-HOSTED", "Figure 2",
          "every mounted application is associated with a host computer",
          ("mc",)),
    Claim("MC-STATION-BEARER", "Figure 2",
          "mobile stations have an attachable wireless bearer", ("mc",)),
    Claim("MC-MIDDLEWARE-COMPAT", "Table 3",
          "the mounted middleware matches its protocol family: WAP "
          "requires a hosted WAP gateway, i-mode a centre with cHTML "
          "adaptation, Palm a web-clipping proxy", ("mc",)),
    Claim("MC-MIDDLEWARE-PROPS", "Table 3",
          "the built middleware exhibits its Table 3 properties: markup "
          "language (WML / cHTML / web clipping), session model "
          "(gateway-session / always-on / request-response) and payload "
          "ceiling (Palm: 1024 bytes per clipping)", ("mc",)),
    Claim("HOST-INTERNALS", "Section 7",
          "host computers contain web servers, database servers and "
          "application programs"),
    Claim("EDGES-RESOLVED", "Figures 1-2",
          "every association/data-flow edge connects two existing "
          "components"),
    Claim("REACHABLE", "Figures 1-2",
          "every component is reachable from the users component"),
)


def claims_for_figure(figure: str) -> list[Claim]:
    """The claims applying to ``"ec"`` or ``"mc"`` reference structures."""
    if figure not in ("ec", "mc"):
        raise ValueError(f"unknown figure {figure!r} (want 'ec' or 'mc')")
    return [c for c in STRUCTURAL_CLAIMS if figure in c.figures]


# The five mobile-commerce system requirements of §1.1.
R1 = Claim("R1", "§1.1", "end users can perform transactions easily, "
           "timely, ubiquitously", ())
R2 = Claim("R2", "§1.1", "products can be personalized or customized "
           "upon request", ())
R3 = Claim("R3", "§1.1", "a wide range of mobile commerce applications "
           "is supported", ())
R4 = Claim("R4", "§1.1", "maximum interoperability across technologies",
           ())
R5 = Claim("R5", "§1.1", "program/data independence under component "
           "change", ())


def _decided(holds: bool) -> Verdict:
    return Verdict.PASS if holds else Verdict.FAIL


def check_requirements(
    system,
    engine,
    latency_budget: float = 10.0,
    interop_matrix: Optional[dict] = None,
    independence_outcomes: Optional[dict] = None,
) -> ModelCheckReport:
    """Decide R1-R5 for ``system`` and the ledger of ``engine``.

    ``interop_matrix`` maps (device, middleware, bearer) -> bool;
    ``independence_outcomes`` maps a stack label -> the business outcome
    of the reference flow.  R4 and R5 without that evidence are
    INCONCLUSIVE, not passed.
    """
    report = ModelCheckReport(figure="mc", model_name=system.model.name)

    # R1 — timely + ubiquitous transactions.
    completed = engine.completed
    ok = engine.successful
    stations = getattr(system, "stations", [])
    used_clients = {r.client_name for r in ok}
    latencies = StatSummary.of(engine.latencies())
    r1 = (bool(completed) and len(ok) == len(completed)
          and latencies.p95 <= latency_budget
          and all(getattr(h.station, "name", "") in used_clients
                  for h in stations))
    report.results.append(CheckResult(
        R1, _decided(r1),
        f"{len(ok)}/{len(completed)} transactions succeeded, "
        f"p95 latency {latencies.p95:.2f}s (budget {latency_budget}s), "
        f"{len(used_clients)} client(s) exercised",
    ))

    # R2 — personalization.
    personalized = [app for app in system.applications
                    if getattr(app, "personalization_used", False)]
    report.results.append(CheckResult(
        R2, _decided(bool(personalized)),
        (f"personalized content served by: "
         f"{', '.join(a.category for a in personalized)}"
         if personalized else "no application served personalized content"),
    ))

    # R3 — breadth of applications: every Table 1 category.
    mounted = {app.category for app in system.applications}
    missing = set(ALL_CATEGORIES) - mounted
    report.results.append(CheckResult(
        R3, _decided(not missing),
        f"mounted categories: {sorted(mounted)}"
        + (f"; missing: {sorted(missing)}" if missing else ""),
    ))

    # R4 — interoperability.
    if interop_matrix:
        failures = [k for k, worked in interop_matrix.items() if not worked]
        report.results.append(CheckResult(
            R4, _decided(not failures),
            f"{len(interop_matrix) - len(failures)}/{len(interop_matrix)} "
            f"device x middleware x bearer combinations worked"
            + (f"; failing: {failures}" if failures else ""),
        ))
    else:
        report.results.append(CheckResult(
            R4, Verdict.INCONCLUSIVE,
            "no interoperability matrix supplied",
        ))

    # R5 — program/data independence.
    if independence_outcomes and len(independence_outcomes) >= 2:
        outcomes = list(independence_outcomes.values())
        identical = all(o == outcomes[0] for o in outcomes[1:])
        report.results.append(CheckResult(
            R5, _decided(identical),
            f"same flow on {sorted(independence_outcomes)} produced "
            + ("identical outcomes" if identical else
               f"different outcomes: {independence_outcomes}"),
        ))
    else:
        report.results.append(CheckResult(
            R5, Verdict.INCONCLUSIVE,
            "need outcomes from at least two component stacks",
        ))
    return report
