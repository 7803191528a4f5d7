"""Job failure characterization (paper §IV, Fig 6 and Fig 7)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame import cross_shares, share
from ..traces.categorize import trace_length_class, trace_size_class
from ..traces.schema import JobStatus, Trace, per_trace

__all__ = [
    "StatusShares",
    "StatusByClass",
    "status_shares",
    "status_by_class",
    "STATUS_ORDER",
]

STATUS_ORDER = (JobStatus.PASSED, JobStatus.FAILED, JobStatus.KILLED)


@dataclass(frozen=True)
class StatusShares:
    """Fig 6 panel: job-count and core-hour shares per status."""

    system: str
    #: job-count share per status, order (Passed, Failed, Killed)
    count_shares: np.ndarray
    #: core-hour share per status
    core_hour_shares: np.ndarray
    n_jobs: int

    @property
    def passed_count_share(self) -> float:
        """Share of jobs that finished normally."""
        return float(self.count_shares[0])

    @property
    def wasted_core_hour_share(self) -> float:
        """Core-hours consumed by Failed + Killed jobs."""
        return float(self.core_hour_shares[1] + self.core_hour_shares[2])

    def killed_amplification(self) -> float:
        """Killed jobs' core-hour share over their count share (>1 = they
        waste disproportionately, the paper's second Fig 6 observation)."""
        if self.count_shares[2] == 0:
            return 0.0
        return float(self.core_hour_shares[2] / self.count_shares[2])


@dataclass(frozen=True)
class StatusByClass:
    """Fig 7 panel: status mix within each size/length class.

    Rows are classes (3), columns statuses (Passed, Failed, Killed); each
    row sums to 1 over the jobs in that class (NaN for empty classes).
    """

    system: str
    by_size: np.ndarray  # shape (3, 3)
    by_length: np.ndarray  # shape (3, 3)
    size_counts: np.ndarray
    length_counts: np.ndarray

    def pass_rate_by_length(self) -> np.ndarray:
        """P(passed | length class) — the Fig 7b series."""
        return self.by_length[:, 0]

    def pass_rate_by_size(self) -> np.ndarray:
        """P(passed | size class) — the Fig 7a series."""
        return self.by_size[:, 0]


@per_trace
def status_shares(trace: Trace) -> StatusShares:
    """Compute Fig 6 shares for one trace."""
    statuses = trace["status"]
    ch = trace.core_hours()
    order = [int(s) for s in STATUS_ORDER]
    return StatusShares(
        system=trace.system.name,
        count_shares=share(None, statuses, order),
        core_hour_shares=share(ch, statuses, order),
        n_jobs=trace.num_jobs,
    )


@per_trace
def status_by_class(trace: Trace) -> StatusByClass:
    """Compute Fig 7 status-vs-geometry matrices for one trace."""
    # STATUS_ORDER is (0, 1, 2): column j holds status j
    statuses = trace["status"]
    by_size, size_counts = cross_shares(trace_size_class(trace), statuses, 3, 3)
    by_length, length_counts = cross_shares(
        trace_length_class(trace), statuses, 3, 3
    )
    return StatusByClass(
        system=trace.system.name,
        by_size=by_size,
        by_length=by_length,
        size_counts=size_counts,
        length_counts=length_counts,
    )
