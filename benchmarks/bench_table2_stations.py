"""Table 2 — Some major mobile stations.

Reproduces the paper's device table and *measures* each device: the
same reference WML deck is rendered on every Table 2 station under its
CPU/OS model, and a reference compute job is timed.  The paper's spec
columns are printed beside the measured render times; the shape check
is that render time ordering follows (inverse) CPU clock x OS overhead.
"""

from repro.devices import (
    Microbrowser,
    OS_PROFILES,
    TABLE2_DEVICES,
    build_station,
)
from repro.net import IPAddress
from repro.sim import Simulator


REFERENCE_DECK = (b"<wml><card id='c0' title='Catalog'><p>"
                  + b"Special offer on phones and cases today! " * 60
                  + b"</p></card></wml>")
REFERENCE_CYCLES = 2e7  # a typical application task


def measure_device(full_name: str) -> dict:
    sim = Simulator()
    station = build_station(sim, full_name, IPAddress.parse("10.0.0.9"))
    browser = Microbrowser(station)
    result = browser.render(REFERENCE_DECK, "text/vnd.wap.wml")
    sim.run()
    render_seconds = result.value.render_seconds

    before = sim.now
    station.compute(REFERENCE_CYCLES)
    sim.run()
    compute_seconds = sim.now - before
    return {
        "spec": station.spec,
        "render_ms": render_seconds * 1000,
        "compute_ms": compute_seconds * 1000,
        "battery_after": station.battery.level,
    }


def measure_all() -> dict:
    return {name: measure_device(name) for name in TABLE2_DEVICES}


def test_table2_stations(golden):
    measured = measure_all()
    rows = []
    for name, data in measured.items():
        spec = data["spec"]
        rows.append([
            spec.full_name,
            f"{spec.os_name} {spec.os_version}",
            spec.cpu_name[:34],
            f"{spec.ram_mb} MB/{spec.rom_mb} MB",
            f"{data['render_ms']:.1f} ms",
            f"{data['compute_ms']:.1f} ms",
        ])
    golden.table(
        "Table 2 - Some major mobile stations "
        "(paper spec columns + measured device model)",
        ["Vendor & Device", "Operating System", "Processor",
         "RAM/ROM", "Render (deck)", "Compute (20M cyc)"],
        rows,
    )

    # Spec columns match the paper exactly.
    spec = measured["Compaq iPAQ H3870"]["spec"]
    assert (spec.cpu_mhz, spec.ram_mb, spec.rom_mb) == (206, 64, 32)
    spec = measured["Palm i705"]["spec"]
    assert (spec.cpu_mhz, spec.ram_mb, spec.rom_mb) == (33, 8, 4)
    spec = measured["Toshiba E740"]["spec"]
    assert (spec.cpu_mhz, spec.ram_mb, spec.rom_mb) == (400, 64, 32)

    # Shape: measured times order by effective speed (clock / overhead).
    def effective_speed(name):
        data = measured[name]
        profile = OS_PROFILES[data["spec"].os_name]
        return data["spec"].cpu_mhz / profile.cpu_overhead

    by_speed = sorted(measured, key=effective_speed)
    render_times = [measured[n]["render_ms"] for n in by_speed]
    assert render_times == sorted(render_times, reverse=True), (
        "render times should fall as effective CPU speed rises"
    )
    # The 33 MHz Palm i705 is the slowest renderer; the 400 MHz E740
    # the fastest — by an order of magnitude, as the clocks suggest.
    assert measured["Palm i705"]["render_ms"] > \
        8 * measured["Toshiba E740"]["render_ms"]

    golden.check()
