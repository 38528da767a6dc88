"""Sanitizer scenario driver: detect, then prove by flipped replay.

One :func:`run_sanitize` call is two-phase:

1. **Detection run** — the scenario executes once with its shared
   state swapped for tracked containers and a :class:`BatchSanitizer`
   installed on the kernel, which forms the same-timestamp batches
   from the entries the kernel dispatches.  Every batch's per-event
   read/write sets are scanned for write/write or read/write overlap;
   each overlapping batch becomes one *hazard*.  The run's canonical
   deterministic output (the bench report's ``deterministic`` section,
   a chaos report's ``canonical_json`` bytes, the planted fixture's final
   state) is kept as the baseline.
2. **Confirmation replays** — for each hazard (up to ``max_replays``)
   the *entire scenario* re-executes deterministically with a
   :class:`FlipDirective` that dispatches the flagged batch in flipped
   order: the conflicting pair transposed (default) or the whole batch
   reversed.  Because the run is bit-reproducible up to the flipped
   batch, the directive's batch ordinal and sequence numbers identify
   the same events as in the detection run.  If the flipped run's
   canonical output differs from the baseline the hazard is a
   **CONFIRMED** race; if the bytes match, the accesses commute in
   effect (e.g. two independent counter increments) and the hazard is
   benign.

The default ``pair`` flip is the minimal confirming flip: it changes
only the order of the two conflicting events.  Reversing a whole batch
also permutes the order in which processes draw from shared seeded
streams — a kernel-ordering effect, not an application race — so
whole-batch reversal is kept behind ``flip_mode="batch"`` for
exploratory use.
"""

from __future__ import annotations

from typing import Optional

from ...core.shoppers import canonical_json
from ...faults.chaos import SCENARIOS, run_chaos
from ...perf.loadgen import run_bench
from ...sim import Simulator
from .sanitizer import (
    AccessRecorder,
    BatchSanitizer,
    FlipDirective,
    TrackedDict,
    first_divergence,
    install_sanitizer,
    instrument_system,
    null_recorder,
    state_hash,
)

__all__ = ["run_sanitize", "render_text"]


# ----------------------------------------------------------- one execution
def _execute(scenario: str, params: dict,
             flip: Optional[FlipDirective] = None,
             record: bool = True) -> tuple:
    """Run ``scenario`` once; returns (sanitizer, wrapped, canonical).

    ``scenario`` is ``bench`` (the default load benchmark), a chaos
    scenario name, or ``planted-race`` (the fixture that proves the
    detector actually detects).  ``record=True`` is the detection run
    (tracked containers feed a live recorder, hazards are scanned);
    ``record=False`` is a confirmation replay (same instrumentation for
    bit-identical behaviour, but a disabled recorder and no hazard scan
    — only the flip and the final canonical bytes matter).
    """
    recorder = AccessRecorder() if record else null_recorder()
    sanitizer = BatchSanitizer(recorder if record else None, flip=flip)
    if scenario == "planted-race":
        canonical, wrapped = _run_planted(recorder, sanitizer)
        return sanitizer, wrapped, canonical

    wrapped: list[str] = []

    def post_build(system, engine):
        wrapped.extend(instrument_system(system, recorder, engine))
        install_sanitizer(system.sim, sanitizer)

    if scenario == "bench":
        report = run_bench(users=params["users"], seed=params["seed"],
                           transactions_per_user=params["transactions"],
                           horizon=params["horizon"], trace=False,
                           post_build=post_build)["deterministic"]
    elif scenario in SCENARIOS:
        report = run_chaos(scenario, seed=params["seed"],
                           intensity=params["intensity"],
                           stations=params["stations"],
                           transactions_per_station=params["transactions"],
                           horizon=params["horizon"],
                           post_build=post_build)
    else:
        raise ValueError(
            f"unknown sanitize scenario {scenario!r} (choose from bench, "
            f"{', '.join(SCENARIOS)}, planted-race)")
    sanitizer.finalize()
    return sanitizer, wrapped, canonical_json(report)


def _run_planted(recorder: AccessRecorder,
                 sanitizer: BatchSanitizer) -> tuple:
    """The planted same-timestamp write/write race.

    Two processes sleep the same 5 virtual seconds, then both write
    ``shared["winner"]`` (a write/write conflict whose outcome is
    whoever runs last) and increment ``shared["total"]`` (read/write
    overlap that happens to commute).  Both resumptions land in one
    batch, so the sanitizer must flag the batch, and the pair-flip
    replay must flip the winner — a CONFIRMED verdict with a visible
    state diff.
    """
    sim = Simulator()
    install_sanitizer(sim, sanitizer)
    shared = TrackedDict({"winner": "nobody", "total": 0},
                         recorder, "planted.shared")

    def contender(name):
        def loop(env):
            yield env.timeout(5.0)
            shared["winner"] = name
            shared["total"] = shared["total"] + 1
        return loop

    for name in ("alice", "bob"):
        sim.spawn(contender(name)(sim), name=name)
    sim.run()
    sanitizer.finalize()
    return canonical_json(dict(shared)), ["planted.shared"]


# --------------------------------------------------------------- the driver
def run_sanitize(scenario: str = "bench", *, seed: int = 7,
                 users: int = 50, stations: int = 4,
                 transactions: int = 3, horizon: float = 120.0,
                 intensity: float = 0.5, max_replays: int = 8,
                 flip_mode: str = "pair") -> dict:
    """Detect and confirm same-timestamp races in ``scenario``.

    Returns the sanitize report dict; ``report["confirmed_races"]``
    counts hazards whose flipped replay diverged (the CLI exits
    non-zero when it is positive).  ``max_replays`` bounds the number
    of full-scenario confirmation re-executions (0 detects without
    replaying); hazards beyond the cap are reported unconfirmed
    (``replays_skipped``).
    """
    if flip_mode not in ("pair", "batch"):
        raise ValueError(f"flip_mode must be 'pair' or 'batch', "
                         f"got {flip_mode!r}")
    if max_replays < 0:
        raise ValueError(f"max_replays must be >= 0, got {max_replays}")
    params = {"seed": seed, "users": users, "stations": stations,
              "transactions": transactions, "horizon": horizon,
              "intensity": intensity}
    sanitizer, wrapped, baseline = _execute(scenario, params)

    confirmations = []
    confirmed = 0
    for hazard in sanitizer.hazards[:max_replays]:
        if flip_mode == "pair":
            seq_a, seq_b = hazard["flip_seqs"]
            flip = FlipDirective(hazard["batch"], seq_a, seq_b,
                                 mode="pair")
        else:
            flip = FlipDirective(hazard["batch"], mode="batch")
        _, _, flipped = _execute(scenario, params, flip=flip,
                                 record=False)
        diverged = flipped != baseline
        if diverged:
            confirmed += 1
        confirmations.append({
            "batch": hazard["batch"],
            "time": hazard["time"],
            "flip": {"mode": flip.mode, "applied": flip.applied,
                     "seqs": (list(hazard["flip_seqs"])
                              if flip.mode == "pair" else None)},
            "verdict": "CONFIRMED" if diverged else "commutes",
            "baseline_hash": state_hash(baseline),
            "flipped_hash": state_hash(flipped),
            "diff": first_divergence(baseline, flipped),
        })

    return {
        "scenario": scenario,
        "params": params,
        "flip_mode": flip_mode,
        "instrumented": sorted(wrapped),
        "batches": sanitizer.batches,
        "multi_event_batches": sanitizer.multi_event_batches,
        "events": sanitizer.events_seen,
        "hazards_found": len(sanitizer.hazards),
        "hazards": sanitizer.hazards,
        "replays": len(confirmations),
        "replays_skipped": max(0, len(sanitizer.hazards) - max_replays),
        "confirmations": confirmations,
        "confirmed_races": confirmed,
        "baseline_hash": state_hash(baseline),
        "verdict": "FAIL" if confirmed else "PASS",
    }


# ---------------------------------------------------------------- rendering
def render_text(report: dict) -> str:
    lines = [
        f"sanitize {report['scenario']}: {report['verdict']} "
        f"({report['confirmed_races']} confirmed race(s), "
        f"{report['hazards_found']} hazard(s))",
        f"  batches={report['batches']} "
        f"multi-event={report['multi_event_batches']} "
        f"events={report['events']} "
        f"instrumented={len(report['instrumented'])} containers",
    ]
    for confirmation in report["confirmations"]:
        verdict = confirmation["verdict"]
        lines.append(
            f"  batch #{confirmation['batch']} @t={confirmation['time']}: "
            f"{verdict} ({confirmation['flip']['mode']} flip, "
            f"baseline {confirmation['baseline_hash']} vs "
            f"flipped {confirmation['flipped_hash']})")
        diff = confirmation["diff"]
        if diff is not None:
            lines.append(f"    first divergence at line {diff['line']}: "
                         f"{diff['baseline']!r} -> {diff['flipped']!r}")
    for hazard in report["hazards"][:report["replays"]]:
        for key in hazard["keys"]:
            lines.append(
                f"  hazard batch #{hazard['batch']} {key['kind']} on "
                f"{key['state']}: writers "
                f"{'; '.join(key['writers'])}"
                + (f", readers {'; '.join(key['readers'])}"
                   if key["readers"] else ""))
    if report["replays_skipped"]:
        lines.append(f"  ({report['replays_skipped']} hazard(s) beyond "
                     f"--max-replays left unconfirmed)")
    return "\n".join(lines)
