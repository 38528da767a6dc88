"""Robustness ablation — resilience policies under deterministic chaos.

The paper's transaction path (station -> bearer -> middleware gateway ->
web server -> DB/payment) is subjected to the ``gateway-outage`` chaos
scenario at increasing intensity, once with every resilience policy
disabled (the historical system) and once with the full stack enabled:
per-request timeouts, seeded-backoff retries, circuit breakers in the
gateway, web-server load shedding, and standby-gateway / direct-HTML
failover.  Every run is a pure function of its seed, so the table below
reproduces byte-for-byte.
"""

from repro.faults import run_chaos


SEED = 7
INTENSITIES = [0.25, 0.5, 0.75]
SCENARIO = "gateway-outage"
COMMON = dict(scenario=SCENARIO, seed=SEED, stations=3,
              transactions_per_station=8, horizon=240.0)


def run_matrix():
    rows = []
    for intensity in INTENSITIES:
        on = run_chaos(intensity=intensity, policies=True, **COMMON)
        off = run_chaos(intensity=intensity, policies=False, **COMMON)
        rows.append({"intensity": intensity, "on": on, "off": off})
    return rows


def test_chaos_resilience(golden):
    rows = run_matrix()

    table = []
    for row in rows:
        on, off = row["on"], row["off"]
        table.append([
            f"{row['intensity']:.2f}",
            f"{off['success_rate']:.3f}",
            f"{on['success_rate']:.3f}",
            f"{on['resilience']['failovers']}",
            f"{on['retries']}",
            f"{off['latency']['p95']:.3f}s",
            f"{on['latency']['p95']:.3f}s",
        ])
    golden.table(
        f"Robustness ablation - '{SCENARIO}' chaos scenario, seed {SEED}, "
        f"{COMMON['stations']}x{COMMON['transactions_per_station']} "
        "transactions",
        ["Intensity", "Success (off)", "Success (on)", "Failovers",
         "Retries", "p95 (off)", "p95 (on)"],
        table,
    )
    worst_off = min(r["off"]["success_rate"] for r in rows)
    golden.emit(f"Policies off: worst-case success {worst_off:.3f}; "
                "policies on hold >= 0.9 at every intensity.")
    golden.emit("")

    # Acceptance: at moderate intensity the policied system succeeds at
    # >= 0.9 and strictly beats the unprotected baseline.
    moderate = next(r for r in rows if r["intensity"] == 0.5)
    assert moderate["on"]["success_rate"] >= 0.9
    assert moderate["on"]["success_rate"] > moderate["off"]["success_rate"]
    # The protection comes from the mechanisms under test.
    assert moderate["on"]["resilience"]["failovers"] >= 1
    # The unprotected run actually suffered (the chaos is real).
    assert moderate["off"]["errors"]
    # Policies never hurt: at every intensity ON >= OFF.
    for row in rows:
        assert row["on"]["success_rate"] >= row["off"]["success_rate"]

    golden.check()
