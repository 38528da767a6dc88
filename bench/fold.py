"""Fold a cProfile run into host seconds per ``repro`` layer.

Self time of a function defined in ``repro`` goes to that function's
layer (its subpackage; ``sim`` and ``net`` are split further because
their modules do very different work).  Self time of a stdlib or
builtin function goes to whoever called it, through the pstats caller
table: each caller's share is the self time recorded for calls from
that caller, and a caller that is itself outside ``repro`` passes its
share up to its own callers in proportion to their cumulative time.
Time that reaches a function with no recorded caller, or a cycle of
functions outside ``repro``, goes to :data:`ENTRY`: profiling starts
inside ``post_build``, so such calls were made by the public entry
point that called it.  Nothing is dropped, so the buckets sum to the
profile's total self time.
"""

from __future__ import annotations

import os

__all__ = ["classify", "profile_stats", "fold_stats", "ENTRY"]

# The public entry points' own work (the GC freeze, building the
# report) and the top-level ``repro`` modules.
ENTRY = "entry"

# Modules inside sim/ and net/ that get a bucket of their own.
_SPLIT = {
    ("sim", "kernel.py"): "sim.kernel",
    ("sim", "sched.py"): "sim.sched",
    ("net", "tcp.py"): "net.tcp",
    ("net", "link.py"): "net.link",
    ("net", "node.py"): "net.node",
}

# Packages charged to another layer, so that no bucket is zero by
# construction on some workload: the fleet is a pool of middleware
# gateways, and the fault injector is the failure path the resilience
# policies answer (``faults/chaos.py`` is an entry point, see below).
_MERGED = {"fleet": "middleware", "faults": "resilience", "perf": ENTRY}


def classify(filename: str, package_dir: str):
    """The layer of a function defined in ``filename``, or None when the
    file is not part of the package rooted at ``package_dir``."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    rel = os.path.relpath(filename, package_dir)
    if rel.startswith(".."):
        return None
    parts = rel.split(os.sep)
    if len(parts) == 1 or parts == ["faults", "chaos.py"]:
        return ENTRY
    top = parts[0]
    if top == "net" and parts[1] == "mobile" and parts[-1].startswith("tcp_"):
        return "net.tcp"
    if top in ("sim", "net"):
        return _SPLIT.get((top, parts[1]), f"{top}.other")
    return _MERGED.get(top, top)


def profile_stats(profiler) -> dict:
    """``pstats.Stats(profiler).stats``, with one key per code object.

    pstats keys a function by (filename, line, name), so functions that
    share one overwrite each other and their time is lost: every
    dataclass-generated ``__init__`` is ("<string>", 2, "__init__"),
    1.2% of a profiled gprs-overload run.  Here a Python function's key
    also carries its code object's id, and entries that still share a
    key are added together.
    """
    def key(code):
        if isinstance(code, str):
            return ("~", 0, code)
        return (code.co_filename, code.co_firstlineno, code.co_name,
                id(code))

    def add(old, entry):
        cc, nc, tt, ct = old
        return (cc + entry.callcount - entry.reccallcount,
                nc + entry.callcount, tt + entry.inlinetime,
                ct + entry.totaltime)

    entries = profiler.getstats()
    stats: dict = {}
    callers: dict = {}
    for entry in entries:
        func = key(entry.code)
        row = add(stats.get(func, (0, 0, 0.0, 0.0))[:4], entry)
        stats[func] = row + (callers.setdefault(func, {}),)
    for entry in entries:
        for sub in entry.calls or ():
            table = callers.setdefault(key(sub.code), {})
            caller = key(entry.code)
            table[caller] = add(table.get(caller, (0, 0, 0.0, 0.0)), sub)
    return stats


def fold_stats(stats: dict, bucket_of) -> dict:
    """Sum self time per bucket.

    ``stats`` is as :func:`profile_stats` returns: ``{func: (cc, nc, tt,
    ct, callers)}`` with ``callers = {caller: (cc, nc, tt, ct)}``, where a
    func is a tuple that starts with its filename.  ``bucket_of(filename)``
    returns a bucket or None for code outside the package.
    """
    memo: dict = {}

    def shares(func, index, seen):
        """{bucket: weight} for time spent in non-package ``func``;
        ``index`` picks the caller-table column the split is weighted
        by (2 = self time, 3 = cumulative time)."""
        key = (func, index)
        if key in memo:
            return memo[key]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[index] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0 and callers:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        if not callers or total <= 0:
            result = {ENTRY: 1.0}
        else:
            result: dict = {}
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                share = weight / total
                bucket = bucket_of(caller[0])
                if bucket is None and caller in seen:
                    # A cycle among non-package functions: no caller in
                    # the package can be found for this share.
                    bucket = ENTRY
                if bucket is not None:
                    result[bucket] = result.get(bucket, 0.0) + share
                else:
                    upper = shares(caller, 3, seen | {caller})
                    for name, part in upper.items():
                        result[name] = result.get(name, 0.0) + share * part
        memo[key] = result
        return result

    totals: dict = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        bucket = bucket_of(func[0])
        if bucket is not None:
            totals[bucket] = totals.get(bucket, 0.0) + tt
            continue
        for name, share in shares(func, 2, frozenset({func})).items():
            totals[name] = totals.get(name, 0.0) + tt * share
    return totals
