"""Job-geometry characterization (paper §III-A, Fig 1).

Three geometries per system: runtime distribution (CDF + violin), arrival
pattern (interval CDF + hour-of-day histogram), and resource allocation
(requested cores CDF, absolute and as % of the system).  The hour-of-day
bins come from :func:`repro.frame.hourly_counts`, the kernel that
``repro clone``'s diurnal fit also uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame import ViolinSummary, ecdf_at, hourly_counts, violin_from_sorted
from ..traces.schema import Trace, per_trace

__all__ = [
    "GeometrySummary",
    "runtime_summary",
    "arrival_summary",
    "allocation_summary",
    "analyze_geometry",
    "RUNTIME_PROBE_SECONDS",
    "INTERVAL_PROBE_SECONDS",
]

#: probe points for runtime CDFs (seconds), log-spaced over the Fig 1a range
RUNTIME_PROBE_SECONDS = np.array(
    [1, 10, 60, 300, 900, 3600, 2 * 3600, 6 * 3600, 86400, 7 * 86400, 30 * 86400],
    dtype=float,
)

#: probe points for arrival-interval CDFs (seconds), Fig 1b range
INTERVAL_PROBE_SECONDS = np.array(
    [1, 5, 10, 30, 60, 100, 300, 1000, 3600, 6 * 3600], dtype=float
)


@dataclass(frozen=True)
class RuntimeSummary:
    """Runtime distribution of one system (Fig 1a)."""

    system: str
    median: float
    cdf_probes: np.ndarray
    cdf_values: np.ndarray
    violin: ViolinSummary


@dataclass(frozen=True)
class ArrivalSummary:
    """Arrival pattern of one system (Fig 1b)."""

    system: str
    median_interval: float
    cdf_probes: np.ndarray
    cdf_values: np.ndarray
    #: mean submissions per hour-of-day (local time), length 24
    hourly_counts: np.ndarray

    @property
    def peak_ratio(self) -> float:
        """Busiest-hour / quietest-hour submission ratio."""
        lo = self.hourly_counts.min()
        return float("inf") if lo == 0 else float(self.hourly_counts.max() / lo)


@dataclass(frozen=True)
class AllocationSummary:
    """Resource allocation of one system (Fig 1c)."""

    system: str
    median_cores: float
    single_unit_fraction: float
    over_1000_fraction: float
    cdf_probes: np.ndarray
    cdf_values: np.ndarray
    #: CDF over percent-of-system instead of absolute cores
    pct_probes: np.ndarray
    pct_cdf_values: np.ndarray


@dataclass(frozen=True)
class GeometrySummary:
    """All Fig 1 panels for one system."""

    runtime: RuntimeSummary
    arrival: ArrivalSummary
    allocation: AllocationSummary


@per_trace
def runtime_summary(trace: Trace) -> RuntimeSummary:
    """Runtime CDF + violin statistics (Fig 1a)."""
    rt = np.asarray(trace["runtime"], dtype=float)
    # one sort feeds every order statistic; the mean reads ``rt``
    ordered = np.sort(rt)
    return RuntimeSummary(
        system=trace.system.name,
        median=float(np.median(ordered)),
        cdf_probes=RUNTIME_PROBE_SECONDS,
        cdf_values=ecdf_at(ordered, RUNTIME_PROBE_SECONDS),
        violin=violin_from_sorted(rt, ordered),
    )


@per_trace
def arrival_summary(trace: Trace) -> ArrivalSummary:
    """Arrival interval CDF and diurnal profile (Fig 1b).

    Hour-of-day uses the facility's local time (``tz_offset_hours``), as
    the paper does.
    """
    submit = trace.submit_times_sorted()
    intervals = np.diff(submit)
    ordered = np.sort(intervals)
    # adding a constant keeps the times sorted
    local = submit + trace.system.tz_offset_hours * 3600.0
    n_days = max(trace.span_seconds / 86400.0, 1e-9)
    return ArrivalSummary(
        system=trace.system.name,
        median_interval=float(np.median(ordered)) if len(ordered) else 0.0,
        cdf_probes=INTERVAL_PROBE_SECONDS,
        cdf_values=ecdf_at(ordered, INTERVAL_PROBE_SECONDS),
        hourly_counts=hourly_counts(local) / n_days,
    )


@per_trace
def allocation_summary(trace: Trace) -> AllocationSummary:
    """Requested-cores CDF, absolute and percentage (Fig 1c)."""
    cores = trace["cores"]
    # sorting the integer column is faster; converting keeps the order, and
    # so does scaling to percent
    ordered = np.sort(cores).astype(float)
    capacity = trace.system.schedulable_units
    probes = np.array(
        [1, 2, 4, 8, 16, 32, 64, 128, 512, 1024, 4096, 16384, 65536, 262144],
        dtype=float,
    )
    pct_probes = np.array(
        [0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 50.0, 100.0]
    )
    return AllocationSummary(
        system=trace.system.name,
        median_cores=float(np.median(ordered)),
        single_unit_fraction=float(np.mean(cores == 1)),
        over_1000_fraction=float(np.mean(cores > 1000)),
        cdf_probes=probes,
        cdf_values=ecdf_at(ordered, probes),
        pct_probes=pct_probes,
        pct_cdf_values=ecdf_at(ordered / capacity * 100.0, pct_probes),
    )


def analyze_geometry(trace: Trace) -> GeometrySummary:
    """All three Fig 1 geometries for one trace."""
    return GeometrySummary(
        runtime=runtime_summary(trace),
        arrival=arrival_summary(trace),
        allocation=allocation_summary(trace),
    )
