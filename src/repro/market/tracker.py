"""Synthetic mturk-tracker trace (the Fig. 1 data substitute).

The paper's experiments are driven by the mturk-tracker.com crawl of
Mechanical Turk from 1/1/2014 to 1/28/2014: marketplace-wide completion
counts in 20-minute snapshots, showing a strong daily and weekly periodicity
(Fig. 1).  That crawl is not available offline, so this module generates a
statistically equivalent trace:

* a smooth *ground-truth* rate ``lambda(t)`` with a diurnal cycle (U.S.
  daytime peak), a weekly cycle (weekend dip), and an optional "special day"
  (the paper's Jan 1 holiday, whose consistent deviation drives the Fig. 10
  outlier),
* observed 20-minute bin counts drawn Poisson around the ground truth —
  exactly the noise model Section 2.1 posits.

Calibration: the default ``base_rate`` is chosen so the 4-week average
arrival rate is ~5080 workers/hour, which makes the paper's theoretical
floor price come out at ``c0 ≈ 12¢`` for the default workload (N=200,
T=24h, Eq. 13) — the anchor number of Section 5.2.1.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.market.rates import PiecewiseConstantRate
from repro.util.validation import require_positive

__all__ = ["TrackerConfig", "SyntheticTrackerTrace", "HOURS_PER_DAY", "DEFAULT_BIN_HOURS"]

HOURS_PER_DAY = 24.0
DEFAULT_BIN_HOURS = 1.0 / 3.0  # 20-minute tracker snapshots


@dataclasses.dataclass(frozen=True)
class TrackerConfig:
    """Shape parameters of the synthetic marketplace trace.

    Attributes
    ----------
    num_days:
        Length of the trace (the paper's crawl spans 28 days).
    bin_hours:
        Snapshot width in hours (20 minutes on mturk-tracker).
    base_rate:
        Mean worker-arrival rate in workers/hour before modulation.
    diurnal_amplitude:
        Relative amplitude of the daily cycle (0 = flat).
    diurnal_peak_hour:
        Hour of day (0-24) at which the daily cycle peaks.
    weekend_factor:
        Multiplier applied on days 4 and 5 of each week (the trace starts on
        a Wednesday like 1/1/2014, so those are Saturday/Sunday).
    holiday_days:
        Day indices with a consistent depressed rate (Jan 1 in the paper).
    holiday_factor:
        Multiplier applied on holiday days.
    """

    num_days: int = 28
    bin_hours: float = DEFAULT_BIN_HOURS
    base_rate: float = 5080.0
    diurnal_amplitude: float = 0.45
    diurnal_peak_hour: float = 14.0
    weekend_factor: float = 0.75
    holiday_days: tuple[int, ...] = (0,)
    holiday_factor: float = 0.55
    start_weekday: int = 2  # Wednesday, like 1/1/2014

    def __post_init__(self) -> None:
        require_positive("num_days", self.num_days)
        require_positive("bin_hours", self.bin_hours)
        require_positive("base_rate", self.base_rate)
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must lie in [0, 1)")

    def true_rate_at(self, t_hours: float) -> float:
        """Ground-truth ``lambda(t)`` at absolute trace time ``t_hours``."""
        day = int(t_hours // HOURS_PER_DAY)
        hour_of_day = t_hours % HOURS_PER_DAY
        diurnal = 1.0 + self.diurnal_amplitude * math.cos(
            2 * math.pi * (hour_of_day - self.diurnal_peak_hour) / HOURS_PER_DAY
        )
        rate = self.base_rate * diurnal
        weekday = (self.start_weekday + day) % 7
        if weekday in (5, 6):
            rate *= self.weekend_factor
        if day in self.holiday_days:
            rate *= self.holiday_factor
        return rate


class SyntheticTrackerTrace:
    """A generated 4-week marketplace trace with tracker-style accessors.

    Parameters
    ----------
    config:
        Trace shape; defaults to the calibrated Jan-2014 stand-in.
    seed:
        Seed for the Poisson observation noise.
    """

    def __init__(self, config: TrackerConfig | None = None, seed: int = 20140101):
        self.config = config or TrackerConfig()
        cfg = self.config
        self.bins_per_day = int(round(HOURS_PER_DAY / cfg.bin_hours))
        if not math.isclose(self.bins_per_day * cfg.bin_hours, HOURS_PER_DAY):
            raise ValueError("bin_hours must divide a 24-hour day evenly")
        num_bins = cfg.num_days * self.bins_per_day
        edges = cfg.bin_hours * np.arange(num_bins + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        self._true_rates = np.array([cfg.true_rate_at(t) for t in centers])
        rng = np.random.default_rng(seed)
        self.counts = rng.poisson(self._true_rates * cfg.bin_hours).astype(int)
        self._edges = edges

    # ------------------------------------------------------------------
    # Tracker-style accessors
    # ------------------------------------------------------------------
    @property
    def num_days(self) -> int:
        return self.config.num_days

    @property
    def bin_hours(self) -> float:
        return self.config.bin_hours

    def observed_rates(self) -> np.ndarray:
        """Per-bin observed arrival rates (counts / bin width), workers/hour."""
        return self.counts / self.config.bin_hours

    def true_rates(self) -> np.ndarray:
        """Ground-truth per-bin rates (workers/hour) before Poisson noise."""
        return self._true_rates.copy()

    def rate_function(self, use_observed: bool = True) -> PiecewiseConstantRate:
        """The full-trace rate as a piecewise-constant function of hours."""
        values = self.observed_rates() if use_observed else self._true_rates
        return PiecewiseConstantRate(self._edges, values)

    def day_counts(self, day: int) -> np.ndarray:
        """Observed bin counts for one day (local time 0-24h)."""
        self._check_day(day)
        lo = day * self.bins_per_day
        return self.counts[lo : lo + self.bins_per_day].copy()

    def day_rate(self, day: int, use_observed: bool = True) -> PiecewiseConstantRate:
        """One day's rate re-based to local time ``[0, 24)`` hours."""
        self._check_day(day)
        lo = day * self.bins_per_day
        if use_observed:
            values = self.observed_rates()[lo : lo + self.bins_per_day]
        else:
            values = self._true_rates[lo : lo + self.bins_per_day]
        return PiecewiseConstantRate.from_uniform_bins(self.config.bin_hours, values)

    def average_day_rate(self, days: list[int]) -> PiecewiseConstantRate:
        """Average the observed per-bin rates across ``days`` (Fig. 10 training).

        The Fig. 10 protocol trains on the average of the other test days'
        rates and evaluates on the held-out day.
        """
        if not days:
            raise ValueError("need at least one day to average")
        stacked = np.stack(
            [self.day_counts(d) / self.config.bin_hours for d in days]
        )
        return PiecewiseConstantRate.from_uniform_bins(
            self.config.bin_hours, stacked.mean(axis=0)
        )

    def six_hour_series(self) -> np.ndarray:
        """Counts aggregated into 6-hour windows — the Fig. 1 series."""
        bins_per_window = int(round(6.0 / self.config.bin_hours))
        usable = (self.counts.size // bins_per_window) * bins_per_window
        return self.counts[:usable].reshape(-1, bins_per_window).sum(axis=1)

    def mean_hourly_rate(self) -> float:
        """Average observed arrival rate over the whole trace, workers/hour."""
        total_hours = self.config.num_days * HOURS_PER_DAY
        return float(self.counts.sum() / total_hours)

    def _check_day(self, day: int) -> None:
        if not 0 <= day < self.config.num_days:
            raise ValueError(
                f"day must lie in [0, {self.config.num_days}), got {day}"
            )
