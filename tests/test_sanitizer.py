"""Tests for the dynamic commutativity sanitizer: tracked containers,
batch hazard detection, flip replay, and the scenario driver."""

import hashlib
import json

import pytest

from repro.analysis.races import (
    AccessRecorder,
    BatchSanitizer,
    FlipDirective,
    TrackedDict,
    TrackedList,
    install_sanitizer,
)
from repro.analysis.races.runner import run_sanitize
from repro.analysis.races.sanitizer import first_divergence, state_hash
from repro.core.shoppers import canonical_json
from repro.faults.chaos import SCENARIOS
from repro.sim import Simulator


# -- tracked containers ------------------------------------------------------

def test_tracked_dict_behaves_like_dict():
    recorder = AccessRecorder()
    tracked = TrackedDict({"a": 1}, recorder, "t")
    tracked["b"] = 2
    assert tracked == {"a": 1, "b": 2}
    assert tracked.get("a") == 1
    assert "a" in tracked
    assert sorted(tracked) == ["a", "b"]
    assert tracked.pop("b") == 2
    assert json.dumps(tracked) == '{"a": 1}'


def test_tracked_dict_records_only_inside_events():
    recorder = AccessRecorder()
    tracked = TrackedDict({}, recorder, "t")
    tracked["ambient"] = 1          # no current event: not recorded
    assert recorder.writes == {}
    recorder.begin_event(0)
    tracked["k"] = 2
    value = tracked.get("k")
    assert value == 2
    assert ("t", "k") in recorder.writes[0]
    assert ("t", "k") in recorder.reads[0]


def test_tracked_list_records_wildcard_writes():
    recorder = AccessRecorder()
    tracked = TrackedList([1], recorder, "l")
    recorder.begin_event(3)
    tracked.append(2)
    assert ("l", "*") in recorder.writes[3]
    assert list(tracked) == [1, 2]


# -- batch hazard detection --------------------------------------------------

def _run_pair(order=("alice", "bob"), flip=None, record=True):
    """Two processes race on one dict key in a same-timestamp batch."""
    recorder = AccessRecorder() if record else None
    sanitizer = BatchSanitizer(recorder, flip=flip)
    sim = Simulator()
    install_sanitizer(sim, sanitizer)
    shared = TrackedDict({"winner": None, "hits": 0},
                         recorder or AccessRecorder(), "shared")

    def contender(name):
        def loop(env):
            yield env.timeout(2.0)
            shared["winner"] = name
            shared["hits"] = shared["hits"] + 1
        return loop

    for name in order:
        sim.spawn(contender(name)(sim), name=name)
    sim.run()
    sanitizer.finalize()
    return sanitizer, dict(shared)


def test_same_batch_write_write_is_flagged():
    sanitizer, state = _run_pair()
    assert state["winner"] == "bob"          # last writer wins
    assert state["hits"] == 2
    assert len(sanitizer.hazards) == 1
    hazard = sanitizer.hazards[0]
    assert hazard["time"] == 2.0
    states = {key["state"] for key in hazard["keys"]}
    assert "shared['winner']" in states
    kinds = {key["kind"] for key in hazard["keys"]}
    assert "write/write" in kinds
    assert len(hazard["flip_seqs"]) == 2


def test_disjoint_keys_are_not_a_hazard():
    recorder = AccessRecorder()
    sanitizer = BatchSanitizer(recorder)
    sim = Simulator()
    install_sanitizer(sim, sanitizer)
    shared = TrackedDict({}, recorder, "shared")

    def writer(key):
        def loop(env):
            yield env.timeout(1.0)
            shared[key] = True
        return loop

    sim.spawn(writer("a")(sim), name="a")
    sim.spawn(writer("b")(sim), name="b")
    sim.run()
    sanitizer.finalize()
    assert sanitizer.hazards == []


def test_read_read_is_not_a_hazard():
    recorder = AccessRecorder()
    sanitizer = BatchSanitizer(recorder)
    sim = Simulator()
    install_sanitizer(sim, sanitizer)
    shared = TrackedDict({"k": 1}, recorder, "shared")

    def reader(env):
        yield env.timeout(1.0)
        value = shared["k"]
        return value

    sim.spawn(reader(sim), name="r1")
    sim.spawn(reader(sim), name="r2")
    sim.run()
    sanitizer.finalize()
    assert sanitizer.hazards == []


def _poke(shared):
    shared["k"] = "call"


def test_hazard_names_scheduled_calls():
    """A process bootstrap (a scheduled call) reads as the event
    resuming that process; any other call by its function's name."""
    recorder = AccessRecorder()
    sanitizer = BatchSanitizer(recorder)
    sim = Simulator()
    install_sanitizer(sim, sanitizer)
    shared = TrackedDict({}, recorder, "shared")

    def writer(env):
        shared["k"] = "process"
        yield env.timeout(1.0)

    sim.spawn(writer(sim), name="w")
    sim._call(_poke, shared)
    sim.run()
    sanitizer.finalize()
    (hazard,) = sanitizer.hazards
    assert hazard["events"] == ["event resuming 'w' (seq 0)", "_poke (seq 1)"]


def test_flip_directive_transposes_the_pair():
    baseline_sanitizer, baseline = _run_pair()
    seq_a, seq_b = baseline_sanitizer.hazards[0]["flip_seqs"]
    ordinal = baseline_sanitizer.hazards[0]["batch"]
    flip = FlipDirective(ordinal, seq_a, seq_b, mode="pair")
    _, flipped = _run_pair(flip=flip, record=False)
    assert flip.applied
    assert flipped["winner"] == "alice"      # order reversed
    assert flipped["hits"] == baseline["hits"] == 2


def test_flip_directive_batch_mode_reverses():
    baseline_sanitizer, baseline = _run_pair()
    ordinal = baseline_sanitizer.hazards[0]["batch"]
    flip = FlipDirective(ordinal, mode="batch")
    _, flipped = _run_pair(flip=flip, record=False)
    assert flip.applied
    assert flipped["winner"] == "alice"


def test_sanitizer_off_has_no_kernel_effect():
    # Two identical runs, sanitizer installed on one only: same state.
    _, with_sanitizer = _run_pair()
    sim = Simulator()
    shared = {"winner": None, "hits": 0}

    def contender(name):
        def loop(env):
            yield env.timeout(2.0)
            shared["winner"] = name
            shared["hits"] = shared["hits"] + 1
        return loop

    for name in ("alice", "bob"):
        sim.spawn(contender(name)(sim), name=name)
    sim.run()
    assert shared == with_sanitizer


# -- the scenario driver -----------------------------------------------------

def test_planted_race_is_confirmed_with_diff():
    report = run_sanitize("planted-race")
    assert report["verdict"] == "FAIL"
    assert report["confirmed_races"] == 1
    assert report["hazards_found"] == 1
    confirmation = report["confirmations"][0]
    assert confirmation["verdict"] == "CONFIRMED"
    assert confirmation["baseline_hash"] != confirmation["flipped_hash"]
    diff = confirmation["diff"]
    assert diff is not None and "winner" in diff["baseline"]
    states = {key["state"] for key in report["hazards"][0]["keys"]}
    assert "planted.shared['winner']" in states


def test_negative_max_replays_is_rejected_not_a_hidden_race(capsys):
    from repro.__main__ import main

    with pytest.raises(ValueError, match="max_replays"):
        run_sanitize("planted-race", max_replays=-1)
    assert main(["sanitize", "planted-race", "--max-replays", "-1"]) == 2
    assert "max_replays must be >= 0" in capsys.readouterr().err
    # 0 is detection without replay: the hazard is found, left unconfirmed.
    report = run_sanitize("planted-race", max_replays=0)
    assert report["hazards_found"] == 1
    assert report["replays"] == 0 and report["replays_skipped"] == 1


def test_planted_race_batch_flip_also_confirms():
    report = run_sanitize("planted-race", flip_mode="batch")
    assert report["confirmed_races"] == 1


def test_bench_scenario_reports_zero_confirmed_races():
    report = run_sanitize("bench", users=10, transactions=2, horizon=60.0)
    assert report["verdict"] == "PASS"
    assert report["confirmed_races"] == 0
    # The run must actually be instrumented and batched.
    assert len(report["instrumented"]) >= 20
    assert report["multi_event_batches"] > 0
    assert report["events"] > 1000


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_chaos_scenarios_report_zero_confirmed_races(scenario):
    """Every shipped chaos scenario sanitizes clean."""
    report = run_sanitize(scenario, stations=3, transactions=2,
                          horizon=90.0)
    assert report["verdict"] == "PASS"
    assert report["confirmed_races"] == 0
    assert report["multi_event_batches"] > 0
    if scenario.startswith(("fleet", "canary")):
        # Fleet membership must really be watched, not silently skipped.
        assert "fleet.members" in report["instrumented"]


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        run_sanitize("no-such-scenario")
    with pytest.raises(ValueError):
        run_sanitize("bench", flip_mode="sideways")


def test_instrumented_bench_is_byte_identical_to_plain():
    # Neither the tracked containers nor the sanitizer's batch
    # forming may change any deterministic output.
    from repro.analysis.races.sanitizer import (
        instrument_system,
        null_recorder,
    )
    from repro.perf.loadgen import run_bench

    kwargs = dict(users=5, seed=7, transactions_per_user=2,
                  horizon=60.0, trace=False)
    plain = json.dumps(run_bench(**kwargs)["deterministic"], sort_keys=True)

    def instrumented(system, engine):
        instrument_system(system, null_recorder(), engine)

    sanitizers = []

    def sanitized(system, engine):
        instrument_system(system, null_recorder(), engine)
        sanitizers.append(install_sanitizer(
            system.sim, BatchSanitizer(null_recorder())))

    for post_build in (instrumented, sanitized):
        report = run_bench(post_build=post_build, **kwargs)
        assert json.dumps(report["deterministic"], sort_keys=True) == plain
    # The sanitizer really saw every dispatched entry.
    assert sanitizers[0].events_seen == report["deterministic"]["kernel_events"]


# -- byte pins ---------------------------------------------------------------
# sha256 of each report's canonical JSON.  Any change to how batches are
# formed, counted, flipped or described shows up as a different digest.
SANITIZE_PINNED = {
    "planted-race-pair": "2f0a6825852a541ee7dbb64f3c664a3b2675f1e70aacce94b512ffb3baf8bb1e",
    "planted-race-batch": "0d43a4ac9af0e8dd95832606f0eaaaf882f1afadb6775a67235304f1790880c0",
    "bench": "ccd1ba08cde62201a26d8db02875a4760fe5ada099b36911635c1c4cab9933ff",
    "gateway-outage": "fbe169c0053c84ab67260e28bb977fe0bcd1482e57bb64cd3f6ad32336c5f914",
}

SANITIZE_RUNS = {
    "planted-race-pair": lambda: run_sanitize("planted-race"),
    "planted-race-batch": lambda: run_sanitize("planted-race",
                                               flip_mode="batch"),
    "bench": lambda: run_sanitize("bench", users=10, transactions=2,
                                  horizon=60.0),
    "gateway-outage": lambda: run_sanitize("gateway-outage", stations=3,
                                           transactions=2, horizon=90.0),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SANITIZE_PINNED))
def test_sanitize_report_bytes_are_pinned(name):
    report = canonical_json(SANITIZE_RUNS[name]())
    assert _sha256(report) == SANITIZE_PINNED[name]


class _DispatchLog:
    """Duck-typed kernel profiler: ``(now, queue depth)`` per entry."""

    def __init__(self):
        self.seen = []

    def on_event(self, now, queue_depth):
        self.seen.append((now, queue_depth))

    def on_resume(self, process):
        pass


def test_whole_batch_flips_on_a_bench_are_pinned():
    """Whole-batch flips at three ordinals of a small bench: the spawn
    batch (59 bootstraps) and two three-entry batches.  Each flip
    reorders dispatch (the profiler's depth log changes) and the
    flipped entries' later dispatch must stay where it was."""
    from repro.perf.loadgen import run_bench

    digest = hashlib.sha256()
    for ordinal in (0, 962, 5898):
        flip = FlipDirective(ordinal, mode="batch")
        log = _DispatchLog()

        def post_build(system, engine):
            system.sim._profiler = log
            install_sanitizer(system.sim, BatchSanitizer(flip=flip))

        report = run_bench(users=10, seed=7, transactions_per_user=2,
                           horizon=60.0, trace=False, post_build=post_build)
        assert flip.applied
        digest.update(canonical_json(report["deterministic"]).encode())
        digest.update(repr(log.seen).encode())
    assert digest.hexdigest() == "7774a2c6b9e6a50bc237a791b6530b433b9db9fe3df96226e6f782b86b9ba598"


# -- helpers -----------------------------------------------------------------

def test_state_hash_and_first_divergence():
    a = '{\n  "x": 1,\n  "y": 2\n}'
    b = '{\n  "x": 1,\n  "y": 3\n}'
    assert state_hash(a) != state_hash(b)
    assert first_divergence(a, a) is None
    diff = first_divergence(a, b)
    assert diff["line"] == 3
    assert "2" in diff["baseline"] and "3" in diff["flipped"]


# -- CLI ---------------------------------------------------------------------

def test_cli_sanitize_planted_race(capsys):
    from repro.__main__ import main

    assert main(["sanitize", "planted-race"]) == 1
    out = capsys.readouterr().out
    assert "CONFIRMED" in out
    assert "FAIL" in out


def test_cli_sanitize_writes_json(tmp_path, capsys):
    from repro.__main__ import main

    out_path = tmp_path / "sanitize.json"
    assert main(["sanitize", "planted-race",
                 "--json", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    assert report["confirmed_races"] == 1
    assert report["confirmations"][0]["verdict"] == "CONFIRMED"
