"""Registry of wireless standards (paper Tables 4 and 5).

Every WLAN standard carries a *rate ladder*: (bit-rate, required SNR)
pairs, mirroring real multi-rate PHYs.  The achieved rate at a given
distance is the fastest rung whose SNR requirement is met, which is
what makes Table 4's rated-vs-range trade-offs emerge from the channel
model instead of being hard-coded.

Cellular standards carry the generation taxonomy of Table 5: radio
type (analog/digital voice channels), switching technique
(circuit/packet) and nominal data rate.
"""

from __future__ import annotations

__all__ = [
    "WLANStandard",
    "CellularStandard",
    "WLAN_STANDARDS",
    "CELLULAR_STANDARDS",
    "wlan_standard",
    "cellular_standard",
]


class WLANStandard:
    """A WLAN PHY profile (Table 4 row)."""

    def __init__(self, name: str, max_rate_bps: float,
                 typical_range_m: tuple[float, float], modulation: str,
                 band_ghz: float, tx_power_dbm: float,
                 rate_ladder: tuple = ()):
        self.name = name
        # rated maximum (paper's "Max. Data Rate")
        self.max_rate_bps = max_rate_bps
        self.typical_range_m = typical_range_m  # paper's "Typical Range"
        self.modulation = modulation  # paper's "Modulation"
        self.band_ghz = band_ghz  # paper's "Frequency Band"
        self.tx_power_dbm = tx_power_dbm
        # (rate_bps, required_snr_db) from fastest to slowest.
        self.rate_ladder = rate_ladder

    def min_required_snr(self) -> float:
        return min(snr for _, snr in self.rate_ladder)

    def rate_at_snr(self, snr_db: float) -> float:
        """Fastest sustainable rate at this SNR (0.0 = out of range)."""
        for rate, required in self.rate_ladder:
            if snr_db >= required:
                return rate
        return 0.0


class CellularStandard:
    """A cellular system profile (Table 5 row)."""

    def __init__(self, name: str, generation: str, radio: str, switching: str,
                 data_rate_bps: float, voice_channels_per_cell: int = 30,
                 typical_cell_radius_m: float = 3000.0):
        self.name = name
        self.generation = generation  # "1G" | "2G" | "2.5G" | "3G"
        self.radio = radio  # "analog" | "digital"
        self.switching = switching  # "circuit" | "packet"
        self.data_rate_bps = data_rate_bps  # 0.0 for voice-only 1G systems
        self.voice_channels_per_cell = voice_channels_per_cell
        self.typical_cell_radius_m = typical_cell_radius_m

    @property
    def supports_data(self) -> bool:
        return self.data_rate_bps > 0


# --------------------------------------------------------------------------
# Table 4 rows.  Rate ladders are calibrated against the default channel
# model (log-distance path loss, exponent 3.0) so that the distance at
# which the lowest rung drops out lands inside the paper's typical-range
# column, and the top rung equals the paper's rated maximum.
# --------------------------------------------------------------------------
WLAN_STANDARDS: dict[str, WLANStandard] = {
    std.name: std
    for std in [
        WLANStandard(
            name="Bluetooth",
            max_rate_bps=1e6,
            typical_range_m=(5, 10),
            modulation="GFSK",
            band_ghz=2.4,
            tx_power_dbm=-12.0,
            rate_ladder=((1e6, 12.0),),
        ),
        WLANStandard(
            name="802.11b",
            max_rate_bps=11e6,
            typical_range_m=(50, 100),
            modulation="HR-DSSS",
            band_ghz=2.4,
            tx_power_dbm=13.0,
            rate_ladder=(
                (11e6, 16.0),
                (5.5e6, 13.0),
                (2e6, 9.0),
                (1e6, 7.0),
            ),
        ),
        WLANStandard(
            name="802.11a",
            max_rate_bps=54e6,
            typical_range_m=(50, 100),
            modulation="OFDM",
            band_ghz=5.0,
            tx_power_dbm=17.0,
            rate_ladder=(
                (54e6, 24.0),
                (36e6, 18.0),
                (24e6, 15.0),
                (12e6, 9.0),
                (6e6, 5.0),
            ),
        ),
        WLANStandard(
            name="HiperLAN2",
            max_rate_bps=54e6,
            typical_range_m=(50, 300),
            modulation="OFDM",
            band_ghz=5.0,
            tx_power_dbm=30.0,  # 1 W EIRP class: the long-range entry
            rate_ladder=(
                (54e6, 24.0),
                (36e6, 18.0),
                (24e6, 15.0),
                (12e6, 9.0),
                (6e6, 3.0),
            ),
        ),
        WLANStandard(
            name="802.11g",
            max_rate_bps=54e6,
            typical_range_m=(50, 150),
            modulation="OFDM",
            band_ghz=2.4,
            tx_power_dbm=15.0,
            rate_ladder=(
                (54e6, 24.0),
                (36e6, 18.0),
                (24e6, 15.0),
                (12e6, 9.0),
                (6e6, 4.0),
            ),
        ),
    ]
}

# --------------------------------------------------------------------------
# Table 5 rows.  Data rates follow the paper's prose: GPRS "about
# 100 kbps", EDGE "384 kbps", WCDMA "384 kbps or faster"; CDMA2000 1x at
# 144 kbps packet data with 3G targets up to 2 Mbps.  2G circuit data is
# the classic 9.6-14.4 kbps CSD.  1G systems are voice-only.
# --------------------------------------------------------------------------
CELLULAR_STANDARDS: dict[str, CellularStandard] = {
    std.name: std
    for std in [
        CellularStandard("AMPS", "1G", "analog", "circuit", 0.0),
        CellularStandard("TACS", "1G", "analog", "circuit", 0.0),
        CellularStandard("GSM", "2G", "digital", "circuit", 9_600.0),
        CellularStandard("TDMA", "2G", "digital", "circuit", 9_600.0),
        CellularStandard("CDMA", "2G", "digital", "packet", 14_400.0),
        CellularStandard("GPRS", "2.5G", "digital", "packet", 100_000.0),
        CellularStandard("EDGE", "2.5G", "digital", "packet", 384_000.0),
        CellularStandard("CDMA2000", "3G", "digital", "packet", 2_000_000.0),
        CellularStandard("WCDMA", "3G", "digital", "packet", 2_000_000.0),
    ]
}


def wlan_standard(name: str) -> WLANStandard:
    """Look up a Table 4 standard by name (KeyError with hint otherwise)."""
    try:
        return WLAN_STANDARDS[name]
    except KeyError:
        raise KeyError(
            f"unknown WLAN standard {name!r}; "
            f"known: {sorted(WLAN_STANDARDS)}"
        ) from None


def cellular_standard(name: str) -> CellularStandard:
    """Look up a Table 5 standard by name."""
    try:
        return CELLULAR_STANDARDS[name]
    except KeyError:
        raise KeyError(
            f"unknown cellular standard {name!r}; "
            f"known: {sorted(CELLULAR_STANDARDS)}"
        ) from None
