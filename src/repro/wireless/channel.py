"""Radio channel model: path loss, SNR, frame errors, rate selection.

The substitution for real PHY hardware (see DESIGN.md): a log-distance
path-loss model

    PL(d) = PL0(band) + 10 * n * log10(d / 1m)

with a band-dependent 1-metre reference loss (5 GHz attenuates harder
than 2.4 GHz — that is why 802.11a does not out-range 802.11b despite
more transmit power).  SNR at the receiver is tx_power - PL - noise
floor.  Frame delivery is then probabilistic: the frame-success
probability is a logistic function of the SNR margin over the selected
rate's requirement, which gives the soft cell edge real radios have.
"""

from __future__ import annotations

import math

from ..sim import RandomStream
from .mobility import Position
from .standards import WLANStandard

__all__ = ["ChannelModel", "LinkBudget"]

NOISE_FLOOR_DBM = -94.0
PATH_LOSS_EXPONENT = 3.0
REFERENCE_LOSS_DB = {2.4: 40.0, 5.0: 47.0}
EDGE_SOFTNESS_DB = 1.5  # logistic scale for the frame-error roll-off
MIN_DISTANCE_M = 1.0
RANGE_RESOLUTION_M = 1.0
RANGE_LIMIT_M = 10_000.0


class LinkBudget:
    """The channel model's verdict for one transmitter-receiver pair."""

    def __init__(self, distance_m: float, path_loss_db: float, snr_db: float,
                 rate_bps: float, success_probability: float):
        self.distance_m = distance_m
        self.path_loss_db = path_loss_db
        self.snr_db = snr_db
        self.rate_bps = rate_bps  # 0.0 when out of range at every rung
        self.success_probability = success_probability

    @property
    def in_range(self) -> bool:
        return self.rate_bps > 0.0


class ChannelModel:
    """Stateless radio math + an optional fading stream for frame errors."""

    def __init__(self, fading_stream: RandomStream | None = None,
                 path_loss_exponent: float = PATH_LOSS_EXPONENT):
        if path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        self.fading = fading_stream
        self.path_loss_exponent = path_loss_exponent

    # -- math -----------------------------------------------------------
    def reference_loss(self, band_ghz: float) -> float:
        """1-metre reference loss for the band (interpolating unknowns)."""
        if band_ghz in REFERENCE_LOSS_DB:
            return REFERENCE_LOSS_DB[band_ghz]
        # 20*log10(f) scaling from the 2.4 GHz anchor.
        return REFERENCE_LOSS_DB[2.4] + 20.0 * math.log10(band_ghz / 2.4)

    def path_loss_db(self, distance_m: float, band_ghz: float) -> float:
        d = max(distance_m, MIN_DISTANCE_M)
        return (self.reference_loss(band_ghz)
                + 10.0 * self.path_loss_exponent * math.log10(d))

    def snr_db(self, distance_m: float, standard: WLANStandard) -> float:
        return (standard.tx_power_dbm
                - self.path_loss_db(distance_m, standard.band_ghz)
                - NOISE_FLOOR_DBM)

    def budget(self, a: Position, b: Position,
               standard: WLANStandard) -> LinkBudget:
        """Full link budget between two positions under ``standard``."""
        distance = a.distance_to(b)
        snr = self.snr_db(distance, standard)
        rate = standard.rate_at_snr(snr)
        if rate > 0.0:
            required = next(req for r, req in standard.rate_ladder
                            if r == rate)
            margin = snr - required
            p_success = 1.0 / (1.0 + math.exp(-margin / EDGE_SOFTNESS_DB))
        else:
            p_success = 0.0
        return LinkBudget(
            distance_m=distance,
            path_loss_db=self.path_loss_db(distance, standard.band_ghz),
            snr_db=snr,
            rate_bps=rate,
            success_probability=p_success,
        )

    def max_range_m(self, standard: WLANStandard) -> float:
        """Largest distance at which the lowest rung is still usable,
        to within RANGE_RESOLUTION_M and at most RANGE_LIMIT_M."""
        lo, hi = MIN_DISTANCE_M, RANGE_LIMIT_M
        if self.snr_db(hi, standard) >= standard.min_required_snr():
            return hi
        while hi - lo > RANGE_RESOLUTION_M:
            mid = (lo + hi) / 2.0
            if self.snr_db(mid, standard) >= standard.min_required_snr():
                lo = mid
            else:
                hi = mid
        return lo

    # -- stochastic frame outcome ----------------------------------------
    def frame_delivered(self, budget: LinkBudget) -> bool:
        """Sample one frame transmission outcome."""
        if not budget.in_range:
            return False
        if self.fading is None:
            # Deterministic channel: succeed iff more likely than not.
            return budget.success_probability >= 0.5
        return self.fading.chance(budget.success_probability)
