"""``python -m bench compare BASE.json CHANGE.json``.

For each (workload, end-to-end metric) it prints better, worse,
unchanged or unresolved (rules in :mod:`bench.stats`) against the
metric's bound (see :func:`bench.runner.metric_tables`), plus one row
per workload saying whether ``det_digest`` is identical.  Rows are
sorted worst verdict first, then by workload and metric.
"""

from __future__ import annotations

from .runner import BenchError, load_json, metric_tables
from .stats import verdict

__all__ = ["compare_results", "compare_files", "render_rows"]

_ORDER = {"worse": 0, "unresolved": 1, "better": 2, "unchanged": 3}


def compare_results(base: dict, change: dict, table: dict) -> list:
    """One row per (workload, metric) present in both result sets;
    ``table`` is the end-to-end half of :func:`bench.runner.metric_tables`."""
    if base["seed"] != change["seed"]:
        raise BenchError(f"seeds differ: {base['seed']} vs {change['seed']}")
    rows = []
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        a, b = base["workloads"][name], change["workloads"][name]
        for key, metric in table.items():
            row = verdict(a["samples"][key], b["samples"][key],
                          metric["better"], metric["bound"],
                          metric.get("bound_abs", 0.0))
            row.update(workload=name, metric=key, unit=metric["unit"])
            rows.append(row)
        rows.append({"workload": name, "metric": "det_digest", "unit": "",
                     "verdict": ("identical"
                                 if a["det_digest"] == b["det_digest"]
                                 else "differs")})
    rows.sort(key=lambda r: (_ORDER.get(r["verdict"], 4), r["workload"],
                             r["metric"]))
    return rows


def _num(value) -> str:
    return f"{value:.5g}"


def render_rows(rows: list) -> str:
    header = (f"{'workload':<15}{'metric':<20}{'unit':<11}{'verdict':<12}"
              f"{'base med':>11}{'base IQR':>11}{'chg med':>11}"
              f"{'chg IQR':>11}{'allowed':>11}{'wins':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        line = (f"{row['workload']:<15}{row['metric']:<20}{row['unit']:<11}"
                f"{row['verdict']:<12}")
        if "base_median" in row:
            line += "".join(f"{_num(row[key]):>11}" for key in (
                "base_median", "base_iqr", "change_median", "change_iqr",
                "allowed"))
            line += f"{row['pair_wins']:>5}/{row['pairs']}"
        lines.append(line.rstrip())
    return "\n".join(lines)


def compare_files(base_path: str, change_path: str):
    """(table text, whether any row is ``worse``)."""
    rows = compare_results(load_json(base_path), load_json(change_path),
                           metric_tables()[0])
    return render_rows(rows), any(r["verdict"] == "worse" for r in rows)
