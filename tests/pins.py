"""Every byte pin's producer, and ``python -m tests.pins``, the one
re-pin command (README, "Pins").  ``tests/pins.json`` holds the values,
keyed ``family/scenario`` (and ``/seed``) as ``PRODUCERS`` is."""

import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.core.shoppers import canonical_json
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.perf.loadgen import run_bench

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "pins.json"
REPORTS = {"BENCH_PERF.json": "--users 500 --seed 7",
           "BENCH_PERF_50.json": "--users 50 --seed 7 --sweep 50,150,300"}
BENCH = dict(users=20, seed=7, transactions_per_user=3, horizon=120.0)
CHAOS = dict(seed=11, transactions_per_station=3, horizon=120.0)


def _python_m(*argv) -> str:
    return subprocess.run([sys.executable, "-m", *argv], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _workload(name):
    workload, seed = name.split("/")
    out = _python_m("bench.worker", json.dumps(
        {"workload": workload, "seed": int(seed), "mode": "plain"}))
    return json.loads(out.splitlines()[-1])["det_digest"]


def _sha256(run, *args, **kwargs):
    return lambda: hashlib.sha256(
        canonical_json(run(*args, **kwargs)).encode()).hexdigest()


@functools.cache
def _hops():
    """The 50-user bench's hops: node and (radio included) link counts.
    No frame is lost in this run, so every forward is delivered."""
    built = []
    run_bench(users=50, seed=7, transactions_per_user=4, horizon=240.0,
              trace=False, post_build=lambda system, _: built.append(system))
    nodes = built[0].network.nodes
    links = {iface.link for node in nodes
             for iface in node.interfaces} - {None}
    return {key: sum(part.stats.get(key) for part in parts) for key, parts in
            (("forwarded", nodes), ("delivered_local", nodes),
             ("delivered", links), ("bytes_delivered", links))}


PRODUCERS = {
    **{f"workload/{name}": functools.partial(_workload, name) for name in (
        "gprs-overload/7", "gprs-light/7", "fleet4/7", "chaos-storm/7",
        "chaos-storm/1007", "chaos-storm/2007")},
    "shoppers/bench-traced": _sha256(run_bench, **BENCH),
    "shoppers/bench-fleet3": _sha256(run_bench, fleet=3, **BENCH),
    "shoppers/bench-imode-untraced": _sha256(
        run_bench, middleware="i-mode", trace=False, **BENCH),
    "shoppers/chaos-storm-palm-off": _sha256(
        run_chaos, "storm", middleware="Palm", policies=False, **CHAOS),
    **{f"shoppers/chaos-{name}": _sha256(run_chaos, name, **CHAOS)
       for name in SCENARIOS},
    **{f"hops/{key}": functools.partial(lambda key: _hops()[key], key)
       for key in ("forwarded", "delivered_local", "delivered",
                   "bytes_delivered")},
    "profile/trace-commerce": lambda: next(
        line for line in _python_m("repro", "trace", "commerce",
                                   "--profile").splitlines()
        if line.startswith("kernel: ")),
}


def _leaves(tree, path=()):
    """``(dotted key, value)`` for every scalar in ``tree``; a list's
    items are keyed by index."""
    if isinstance(tree, list):
        tree = dict(enumerate(tree))
    if not isinstance(tree, dict):
        yield ".".join(path), tree
        return
    for key, value in tree.items():
        yield from _leaves(value, (*path, str(key)))


def repin() -> None:
    old = json.loads(LEDGER.read_text())
    for report, args in REPORTS.items():
        before = dict(_leaves(json.loads((ROOT / report).read_text())))
        _python_m("repro", "bench", *args.split(), "--out", report)
        after = dict(_leaves(json.loads((ROOT / report).read_text())))
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"{report} {key} {before.get(key)} → {after.get(key)}")
    new = {name: produce() for name, produce in PRODUCERS.items()}
    LEDGER.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"{name} {old.get(name)} → {new.get(name)}")


if __name__ == "__main__":
    repin()
