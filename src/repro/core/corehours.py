"""Core-hour domination analysis (paper §III-A, Fig 2).

Which job classes consume the system?  Shares of total consumed core-hours
by size class (small/middle/large, system-dependent edges) and by length
class (short/middle/long).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame import share
from ..traces.categorize import (
    LENGTH_LABELS,
    SIZE_LABELS,
    trace_length_class,
    trace_size_class,
)
from ..traces.schema import Trace, per_trace

__all__ = ["CoreHourShares", "core_hour_shares", "dominating_class"]


@dataclass(frozen=True)
class CoreHourShares:
    """Fig 2 panel for one system."""

    system: str
    #: core-hour share per size class, order (small, middle, large)
    by_size: np.ndarray
    #: core-hour share per length class, order (short, middle, long)
    by_length: np.ndarray
    #: job-count share per size class (for count-vs-consumption contrast)
    count_by_size: np.ndarray
    count_by_length: np.ndarray
    total_core_hours: float

    def dominant_size(self) -> str:
        """Size class with the largest core-hour share."""
        return SIZE_LABELS[int(np.argmax(self.by_size))]

    def dominant_length(self) -> str:
        """Length class with the largest core-hour share."""
        return LENGTH_LABELS[int(np.argmax(self.by_length))]


@per_trace
def core_hour_shares(trace: Trace) -> CoreHourShares:
    """Compute Fig 2 shares for one trace."""
    ch = trace.core_hours()
    s_cls = trace_size_class(trace)
    l_cls = trace_length_class(trace)
    return CoreHourShares(
        system=trace.system.name,
        by_size=share(ch, s_cls, [0, 1, 2]),
        by_length=share(ch, l_cls, [0, 1, 2]),
        count_by_size=share(None, s_cls, [0, 1, 2]),
        count_by_length=share(None, l_cls, [0, 1, 2]),
        total_core_hours=float(ch.sum()),
    )


def dominating_class(shares: CoreHourShares, threshold: float = 0.5) -> dict:
    """Classes holding more than ``threshold`` of core-hours (Takeaway 4)."""
    out = {}
    for label, value in zip(SIZE_LABELS, shares.by_size):
        if value > threshold:
            out[f"size:{label}"] = float(value)
    for label, value in zip(LENGTH_LABELS, shares.by_length):
        if value > threshold:
            out[f"length:{label}"] = float(value)
    return out
