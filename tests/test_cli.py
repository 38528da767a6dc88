"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.perf import run_bench

TINY_BENCH = ["bench", "--users", "3", "--transactions", "1",
              "--horizon", "30"]


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


def test_cli_bench_writes_the_plain_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(TINY_BENCH + ["--sweep", "2,3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    scenario = {"users": 3, "seed": 7, "transactions_per_user": 1,
                "horizon": 30.0, "fleet": 0}
    assert report["scenario"] == scenario
    assert {key: report[key] for key in ("deterministic", "optimizations")} \
        == run_bench(**scenario)
    assert [point["users"] for point in
            report["sweep"]["deterministic"]["points"]] == [2, 3]
    assert sorted(report) == ["deterministic", "optimizations", "scenario",
                              "sweep"]
    assert f"report written to {out}" in capsys.readouterr().err


COUNT = "must be >= 1"
SPAN = "must be finite and > 0"
INTENSITY = "must be finite and >= 0"
FLEET = "must be >= 0"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bench", "--users", "0"], COUNT, id="--users"),
    pytest.param(["bench", "--transactions", "0"], COUNT,
                 id="--transactions"),
    pytest.param(["chaos", "storm", "--stations", "-2"], COUNT,
                 id="chaos--stations"),
    pytest.param(["chaos", "storm", "--transactions", "0"], COUNT,
                 id="chaos--transactions"),
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
    # Once a chaos run with no faults, a traceback, or (inf on storm) a
    # fault plan that is never finished.
    pytest.param(["chaos", "storm", "--intensity", "nan"], INTENSITY,
                 id="chaos--intensity-nan"),
    pytest.param(["chaos", "storm", "--intensity", "inf"], INTENSITY,
                 id="chaos--intensity-inf"),
    pytest.param(["chaos", "storm", "--intensity", "-1"], INTENSITY,
                 id="chaos--intensity-neg"),
    # Once silently run as --fleet 0.
    pytest.param(["chaos", "gateway-outage", "--fleet", "-1"], FLEET,
                 id="chaos--fleet-neg"),
    pytest.param(["bench", "--fleet", "-1"], FLEET, id="--fleet-neg"),
    # Once a traceback (exit 1) from deep in the build or the plan loader.
    pytest.param(["chaos", "nosuch"], "unknown scenario 'nosuch'",
                 id="chaos-scenario"),
    pytest.param(["chaos", "storm", "--plan", "missing.json"],
                 "No such file", id="chaos--plan-missing"),
    pytest.param(["chaos", "storm", "--plan", "not-json.json"],
                 "Expecting value", id="chaos--plan-not-json"),
    pytest.param(["chaos", "storm", "--plan", "meteor.json"],
                 "unknown fault kind 'meteor'", id="chaos--plan-kind"),
    pytest.param(["quickstart", "--device", "Foo"], "unknown device 'Foo'",
                 id="quickstart--device"),
    pytest.param(["trace", "--device", "Foo"], "unknown device 'Foo'",
                 id="trace--device"),
    *(pytest.param([*command, "--bearer", bearer, *kind],
                   f"unknown cellular bearer '{bearer}'",
                   id=f"{command[0]}--bearer-{bearer}")
      for command in (["quickstart"], ["trace"], ["chaos", "storm"])
      for bearer, kind in (("FOO", []),
                           ("802.11b", ["--bearer-kind", "cellular"]))),
    # Once a DataNotSupportedError traceback from the build.
    *(pytest.param([*command, "--bearer", bearer],
                   f"'{bearer}' is a voice-only bearer (data-capable: GSM, "
                   "TDMA, CDMA, GPRS, EDGE, CDMA2000, WCDMA)",
                   id=f"{command[0]}--bearer-{bearer}")
      for command in (["quickstart"], ["trace"], ["chaos", "storm"])
      for bearer in ("AMPS", "TACS")),
    # Once a KeyError/AttributeError traceback from the plan loader.
    pytest.param(["chaos", "storm", "--plan", "no-kind.json"],
                 """a fault needs "kind" and "at": {'at': 1.0}""",
                 id="chaos--plan-no-kind"),
    pytest.param(["chaos", "storm", "--plan", "list.json"],
                 'a fault plan is {"faults": [...]}', id="chaos--plan-list"),
    pytest.param(["chaos", "storm", "--plan", "at-null.json"],
                 "not 'NoneType'", id="chaos--plan-at-null"),
])
def test_cli_bench_rejects_non_positive_counts(argv, message, capsys,
                                               tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-json.json").write_text("faults: none\n")
    (tmp_path / "meteor.json").write_text(
        '{"faults": [{"kind": "meteor", "at": 1.0}]}')
    (tmp_path / "no-kind.json").write_text('{"faults": [{"at": 1.0}]}')
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "at-null.json").write_text(
        '{"faults": [{"kind": "link_flap", "at": null}]}')
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_bench_rejects_non_positive_sweep(capsys):
    assert main(["bench", "--sweep", "50,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--sweep expects")
    assert len(err.strip().splitlines()) == 1
