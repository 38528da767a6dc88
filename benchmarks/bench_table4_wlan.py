"""Table 4 — Major WLAN standards.

Reproduces the paper's WLAN comparison by *measuring* each standard on
the channel model: a station associated to an AP runs a TCP download
at 5 m to measure achievable goodput (vs the rated max), the model's
maximum usable range is searched (vs the paper's typical-range column),
and a distance sweep shows the rate ladder degrading to zero — the
"figure" behind the table.
"""

from repro.net import IPAddress, Network, Subnet, TCPStack
from repro.sim import Simulator
from repro.wireless import (
    AccessPoint,
    ChannelModel,
    Mobile,
    Position,
    WLAN_STANDARDS,
    wlan_standard,
)


DOWNLOAD_BYTES = {
    "Bluetooth": 150_000,
    "802.11b": 800_000,
    "802.11a": 2_000_000,
    "HiperLAN2": 2_000_000,
    "802.11g": 2_000_000,
}


def goodput_at(standard_name: str, distance: float, size: int) -> float:
    """TCP goodput (bps) station<->server at the given AP distance."""
    sim = Simulator()
    net = Network(sim)
    server = net.add_node("server")
    ap_router = net.add_node("ap", forwarding=True)
    net.connect(server, ap_router, Subnet.parse("10.0.0.0/24"),
                bandwidth_bps=1_000_000_000, delay=0.000_5)
    channel = ChannelModel()
    ap = AccessPoint(ap_router, Position(0, 0),
                     wlan_standard(standard_name), channel,
                     wireless_subnet=Subnet.parse("10.0.1.0/24"))
    net.build_routes()
    station = net.add_node("station")
    station.assign_address(IPAddress.parse("10.0.1.50"))
    mobile = Mobile(Position(distance, 0))
    try:
        ap.associate(station, mobile)
    except ConnectionError:
        return 0.0

    tcp_srv = TCPStack(server)
    tcp_sta = TCPStack(station)
    listener = tcp_srv.listen(80)
    received = bytearray()
    finish = {}

    def srv(env):
        conn = yield listener.accept()
        conn.send(b"B" * size)

    def sta(env):
        conn = tcp_sta.connect(server.primary_address, 80)
        yield conn.established_event
        start = env.now
        while len(received) < size:
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        finish["goodput"] = len(received) * 8 / (env.now - start)

    sim.spawn(srv(sim))
    sim.spawn(sta(sim))
    sim.run(until=300)
    return finish.get("goodput", 0.0)


def measure_all() -> dict:
    channel = ChannelModel()
    measured = {}
    for name, std in WLAN_STANDARDS.items():
        measured[name] = {
            "std": std,
            "goodput_5m": goodput_at(name, 5.0, DOWNLOAD_BYTES[name]),
            "range_m": channel.max_range_m(std),
        }
    return measured


def test_table4_wlan(golden):
    measured = measure_all()
    rows = []
    for name, data in measured.items():
        std = data["std"]
        low, high = std.typical_range_m
        rows.append([
            name,
            f"{std.max_rate_bps / 1e6:.0f}",
            f"{data['goodput_5m'] / 1e6:.1f}",
            f"{low:.0f} - {high:.0f}",
            f"{data['range_m']:.0f}",
            f"{std.modulation} / {std.band_ghz}",
        ])
    golden.table(
        "Table 4 - Major WLAN standards (paper columns + measured model)",
        ["Standard", "Rated Mbps", "Measured Mbps @5m",
         "Paper range (m)", "Measured range (m)",
         "Modulation / Band (GHz)"],
        rows,
    )

    # The figure behind the table: the 802.11b rate ladder vs distance.
    channel = ChannelModel()
    std = wlan_standard("802.11b")
    sweep_rows = []
    for distance in (2, 25, 60, 80, 95, 105, 150):
        budget = channel.budget(Position(0, 0), Position(distance, 0), std)
        sweep_rows.append([
            f"{distance}",
            f"{budget.snr_db:.1f}",
            f"{budget.rate_bps / 1e6:.1f}",
            f"{budget.success_probability:.2f}",
        ])
    golden.table("802.11b rate vs distance (channel-model sweep)",
                 ["Distance (m)", "SNR (dB)", "PHY rate (Mbps)",
                  "Frame success p"], sweep_rows)

    # Shape checks against the paper.
    for name, data in measured.items():
        std = data["std"]
        low, high = std.typical_range_m
        assert low <= data["range_m"] <= high * 1.1, name
        # TCP goodput lands below the PHY rate but within 2x of it.
        assert data["goodput_5m"] <= std.max_rate_bps
        assert data["goodput_5m"] >= std.max_rate_bps * 0.3, name

    g = {n: d["goodput_5m"] for n, d in measured.items()}
    r = {n: d["range_m"] for n, d in measured.items()}
    # Who wins on rate: OFDM trio >> 802.11b >> Bluetooth.
    assert min(g["802.11a"], g["802.11g"], g["HiperLAN2"]) > 2 * g["802.11b"]
    assert g["802.11b"] > 3 * g["Bluetooth"]
    # Who wins on range: HiperLAN2 > 802.11g > 802.11b ~ 802.11a > Bluetooth.
    assert r["HiperLAN2"] > r["802.11g"] > r["802.11b"] > r["Bluetooth"]

    golden.check()
