"""Job waiting-time analysis (paper §III-B, Fig 4 and Fig 5)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame import ecdf_at
from ..traces.categorize import trace_length_class, trace_size_class
from ..traces.schema import Trace, per_trace

__all__ = [
    "WaitSummary",
    "WaitByClass",
    "wait_summary",
    "wait_by_class",
    "WAIT_PROBE_SECONDS",
]

#: probe points for wait/turnaround CDFs (Fig 4 x-range)
WAIT_PROBE_SECONDS = np.array(
    [1, 10, 60, 600, 1800, 5400, 4 * 3600, 86400, 7 * 86400], dtype=float
)


@dataclass(frozen=True)
class WaitSummary:
    """Fig 4 panel for one system: wait and turnaround CDFs."""

    system: str
    median_wait: float
    mean_wait: float
    cdf_probes: np.ndarray
    wait_cdf: np.ndarray
    turnaround_cdf: np.ndarray

    def fraction_waiting_less_than(self, seconds: float) -> float:
        """Interpolated share of jobs waiting under ``seconds``."""
        return float(np.interp(seconds, self.cdf_probes, self.wait_cdf))


@dataclass(frozen=True)
class WaitByClass:
    """Fig 5 panel for one system: average wait per size/length class."""

    system: str
    #: mean wait per size class (small, middle, large)
    by_size: np.ndarray
    #: mean wait per length class (short, middle, long)
    by_length: np.ndarray
    #: job counts per class, for confidence context
    size_counts: np.ndarray
    length_counts: np.ndarray

    def longest_waiting_size(self) -> int:
        """Index of the size class with the longest mean wait."""
        return int(np.nanargmax(self.by_size))

    def longest_waiting_length(self) -> int:
        """Index of the length class with the longest mean wait."""
        return int(np.nanargmax(self.by_length))


@per_trace
def wait_summary(trace: Trace) -> WaitSummary:
    """Wait and turnaround CDFs (Fig 4)."""
    wait = trace["wait_time"]
    turnaround = trace.turnaround()
    return WaitSummary(
        system=trace.system.name,
        median_wait=float(np.median(wait)),
        mean_wait=float(wait.mean()),
        cdf_probes=WAIT_PROBE_SECONDS,
        wait_cdf=ecdf_at(wait, WAIT_PROBE_SECONDS),
        turnaround_cdf=ecdf_at(turnaround, WAIT_PROBE_SECONDS),
    )


def _class_means(values: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = np.full(3, np.nan)
    counts = np.zeros(3, dtype=int)
    for k in range(3):
        mask = classes == k
        counts[k] = int(mask.sum())
        if counts[k]:
            means[k] = float(values[mask].mean())
    return means, counts


def wait_by_class(trace: Trace) -> WaitByClass:
    """Mean wait per size and length class (Fig 5)."""
    wait = trace["wait_time"]
    by_size, size_counts = _class_means(wait, trace_size_class(trace))
    by_length, length_counts = _class_means(wait, trace_length_class(trace))
    return WaitByClass(
        system=trace.system.name,
        by_size=by_size,
        by_length=by_length,
        size_counts=size_counts,
        length_counts=length_counts,
    )
