"""Tests for the ``python -m repro`` command-line interface."""

import functools
import json

import pytest

from repro.__main__ import main
from repro.perf import report as bench_report

TINY_BENCH = ["bench", "--users", "3", "--transactions", "1",
              "--horizon", "30"]
EQUIVALENCE_ROWS = {"caches-bench-timed", "caches-bench",
                    "caches-chaos-gateway-outage",
                    "caches-chaos-dns-blackout", "fleet-of-1-vs-single",
                    "fleet-of-3-repeat"}


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ICDCSW'03" in out
    assert "repro.core" in out


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Palm i705" in out
    assert "802.11b" in out
    assert "WCDMA" in out
    assert "commerce" in out


def test_cli_quickstart_default(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "OK in" in out


def test_cli_quickstart_wlan_bearer_inferred(capsys):
    assert main(["quickstart", "--bearer", "802.11b",
                 "--middleware", "i-mode"]) == 0
    out = capsys.readouterr().out
    assert "i-mode/802.11b" in out


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _counting(monkeypatch, name, calls):
    real = getattr(bench_report, name)

    @functools.wraps(real)
    def produce(*args, **kwargs):
        calls.append((name, args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(bench_report, name, produce)


def test_cli_bench_writes_the_equivalence_rows(tmp_path, monkeypatch,
                                               capsys):
    calls = []
    _counting(monkeypatch, "bench_bytes", calls)
    _counting(monkeypatch, "chaos_bytes", calls)
    out = tmp_path / "bench.json"
    assert main(TINY_BENCH + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    equivalence = report["equivalence"]
    assert equivalence["identical"] is True
    assert set(equivalence["checks"]) == EQUIVALENCE_ROWS
    assert {"determinism", "fleet_determinism", "caches_off",
            "identical_results_caches_on_vs_off",
            "speedup_caches_on_vs_off"}.isdisjoint(report)
    # Twelve arms, eleven executions: besides the timed run, the
    # single-gateway run the caches and fleet-of-1 rows share executes
    # once, and the fleet-of-3 run twice.
    assert sum(name == "bench_bytes" for name, _, _ in calls) == 6
    assert sum(name == "chaos_bytes" for name, _, _ in calls) == 4
    assert "6 rows byte-identical" in capsys.readouterr().err


def test_cli_bench_fails_naming_a_divergent_row(tmp_path, monkeypatch,
                                                capsys):
    real = bench_report.equivalence_check
    planted = ("planted-divergence", lambda: "a", lambda: "b")
    monkeypatch.setattr(bench_report, "equivalence_check",
                        lambda rows, **scenario: real(rows + [planted],
                                                      **scenario))
    out = tmp_path / "bench.json"
    assert main(TINY_BENCH + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "equivalence row planted-divergence diverged" in err
    report = json.loads(out.read_text())
    assert report["equivalence"]["identical"] is False
    assert report["equivalence"]["checks"]["planted-divergence"] is False


COUNT = "must be >= 1"
SPAN = "must be finite and > 0"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bench", "--users", "0"], COUNT, id="--users"),
    pytest.param(["bench", "--transactions", "0"], COUNT,
                 id="--transactions"),
    pytest.param(["chaos", "storm", "--stations", "-2"], COUNT,
                 id="chaos--stations"),
    pytest.param(["chaos", "storm", "--transactions", "0"], COUNT,
                 id="chaos--transactions"),
    pytest.param(["sanitize", "bench", "--users", "0"], COUNT,
                 id="sanitize--users"),
    pytest.param(["sanitize", "storm", "--stations", "-1"], COUNT,
                 id="sanitize--stations"),
    pytest.param(["sanitize", "storm", "--transactions", "0"], COUNT,
                 id="sanitize--transactions"),
    # Once a traceback, an empty report or a run that never returns.
    pytest.param(["bench", "--horizon", "-5"], SPAN, id="--horizon-neg"),
    pytest.param(["bench", "--horizon", "0"], SPAN, id="--horizon-zero"),
    pytest.param(["bench", "--horizon", "inf"], SPAN, id="--horizon-inf"),
    pytest.param(["chaos", "storm", "--horizon", "nan"], SPAN,
                 id="chaos--horizon-nan"),
    pytest.param(["chaos", "storm", "--horizon", "inf"], SPAN,
                 id="chaos--horizon-inf"),
    pytest.param(["chaos", "storm", "--horizon", "-5"], SPAN,
                 id="chaos--horizon-neg"),
    pytest.param(["sanitize", "storm", "--horizon", "-5"], SPAN,
                 id="sanitize--horizon-neg"),
    pytest.param(["sanitize", "bench", "--horizon", "nan"], SPAN,
                 id="sanitize--horizon-nan"),
])
def test_cli_bench_rejects_non_positive_counts(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_bench_rejects_non_positive_sweep(capsys):
    assert main(["bench", "--sweep", "50,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--sweep expects")
    assert len(err.strip().splitlines()) == 1
