"""Diurnal (hour-of-day) arrival modulation.

The paper's Fig 1(b) bottom shows that some systems have pronounced
"peak hours" (Helios: 10× max/min hourly submissions, Blue Waters moderate)
while others are nearly flat (Philly 2.5×, with a *dip* during business
hours; Mira/Theta slightly heavier after noon).  A :class:`DiurnalProfile`
captures the relative submission intensity per local hour and is used to
thin/retime session starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import choice_cdf, sample_cdf

__all__ = ["DiurnalProfile", "flat_profile", "peaked_profile", "dipped_profile", "afternoon_profile"]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


@dataclass(frozen=True)
class DiurnalProfile:
    """Relative arrival intensity for each of the 24 local hours."""

    weights: tuple

    def __post_init__(self) -> None:
        if len(self.weights) != 24:
            raise ValueError("diurnal profile needs exactly 24 weights")
        if min(self.weights) < 0 or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")

    @property
    def normalized(self) -> np.ndarray:
        """Weights scaled to sum to 1."""
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()

    @cached_property
    def hour_cdf(self) -> np.ndarray:
        """CDF over the 24 hours, built once (see :func:`.distributions.choice_cdf`)."""
        return choice_cdf(self.normalized)

    def sample_times_of_day(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw seconds-within-day values following the profile."""
        hours = sample_cdf(rng, self.hour_cdf, size)
        return hours * SECONDS_PER_HOUR + rng.uniform(0, SECONDS_PER_HOUR, size=size)

    def sample_times(
        self, rng: np.random.Generator, size: int, days: float
    ) -> np.ndarray:
        """Draw absolute times over ``days`` days, diurnally modulated, sorted."""
        day_index = rng.integers(0, max(1, int(np.ceil(days))), size=size)
        tod = self.sample_times_of_day(rng, size)
        t = day_index * SECONDS_PER_DAY + tod
        t = t[t < days * SECONDS_PER_DAY]
        return np.sort(t)


def flat_profile() -> DiurnalProfile:
    """No diurnal effect."""
    return DiurnalProfile(weights=tuple([1.0] * 24))


def peaked_profile(ratio: float = 10.0, start: int = 8, end: int = 18) -> DiurnalProfile:
    """Business-hours peak with the given max/min ratio (Helios-like)."""
    base = 1.0
    peak = base * ratio
    weights = []
    for h in range(24):
        if start <= h < end:
            # smooth ramp into/out of the peak
            centre = (start + end) / 2
            frac = 1.0 - abs(h - centre) / max(1.0, (end - start) / 2)
            weights.append(base + (peak - base) * max(0.3, frac))
        else:
            weights.append(base)
    return DiurnalProfile(weights=tuple(weights))


def dipped_profile(ratio: float = 2.5, start: int = 9, end: int = 17) -> DiurnalProfile:
    """Philly-like: *fewer* submissions during peak hours, small dynamic range."""
    hi = ratio
    lo = 1.0
    weights = [lo if start <= h < end else hi for h in range(24)]
    return DiurnalProfile(weights=tuple(weights))


def afternoon_profile(boost: float = 1.4) -> DiurnalProfile:
    """Mira/Theta-like: nearly flat, slightly more submissions after noon."""
    weights = [1.0 if h < 12 else boost for h in range(24)]
    return DiurnalProfile(weights=tuple(weights))
