"""Ablation — end-to-end transaction latency across every bearer.

The paper's summary: "1G systems ... will not play a significant role
in mobile commerce"; 2G/2.5G carry it with "much lower bandwidth (less
than 1 Mbps)"; "3G systems with quality-of-service capability will
dominate".  This benchmark runs the *same* purchase on every Table 5
cellular standard and two Table 4 WLAN standards and reports the
end-to-end latency series — the usability curve behind those claims.
"""

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.wireless import DataNotSupportedError

from helpers import run_transaction

BEARERS = [
    ("cellular", "AMPS"),
    ("cellular", "GSM"),
    ("cellular", "CDMA"),
    ("cellular", "GPRS"),
    ("cellular", "EDGE"),
    ("cellular", "WCDMA"),
    ("wlan", "802.11b"),
    ("wlan", "802.11g"),
]


def measure_bearer(bearer) -> dict:
    system = MCSystemBuilder(middleware="WAP", bearer=bearer).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    try:
        handle = system.add_station("Compaq iPAQ H3870")
    except DataNotSupportedError as exc:
        return {"ok": False, "reason": str(exc)}
    engine = TransactionEngine(system)
    record = run_transaction(system, engine, handle,
                             shop.browse_and_buy(account="ann"),
                             horizon=3_000)
    return {"ok": record.ok, "latency": record.latency,
            "bytes": record.bytes_received, "error": record.error}


def measure_all():
    return {name: measure_bearer((kind, name)) for kind, name in BEARERS}


def test_ablation_bearers(golden):
    measured = measure_all()
    rows = []
    for (kind, name) in BEARERS:
        data = measured[name]
        if not data["ok"] and "reason" in data:
            rows.append([name, kind, "unusable", "no data service"])
            continue
        rows.append([
            name, kind,
            f"{data['latency']:.2f} s" if data["ok"] else "FAILED",
            f"{data['bytes']} B",
        ])
    golden.table(
        "Bearer sweep - the same WAP purchase on every bearer "
        "(3-page browse-and-buy)",
        ["Bearer", "Kind", "Transaction latency", "Bytes delivered"],
        rows,
    )

    # 1G cannot participate at all.
    assert not measured["AMPS"]["ok"]
    # Everything 2G+ completes, but latency falls monotonically with
    # generation: GSM > CDMA > GPRS > EDGE > WCDMA > WLAN.
    order = ["GSM", "CDMA", "GPRS", "EDGE", "WCDMA", "802.11b"]
    latencies = [measured[n]["latency"] for n in order]
    assert all(measured[n]["ok"] for n in order)
    assert latencies == sorted(latencies, reverse=True), latencies
    # The paper-era pain is visible: even a tiny 3-page purchase is
    # several times slower on 2G circuit data than on 3G, and 3G/WLAN
    # are interactive (<1 s).
    assert measured["GSM"]["latency"] > 3 * measured["WCDMA"]["latency"]
    assert measured["WCDMA"]["latency"] < 1.0

    golden.check()
