"""Use case 2: adaptive relaxed backfilling (paper §VI-B, Table II).

Runs the scheduler simulator over a trace twice — fixed-factor relaxed
backfilling vs. the paper's adaptive variant (Eq. 1) — and reports the four
Table II metrics plus improvement percentages.

The paper runs this only on Blue Waters, Mira and Theta because the DL
traces carry no walltimes (backfilling needs runtime estimates).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces.schema import Trace
from .backfill import adaptive_relaxed, relaxed
from .engine import simulate
from .job import workload_from_trace
from .metrics import ScheduleMetrics, compute_metrics

__all__ = ["AdaptiveComparison", "run_use_case2", "improvement_pct"]


def improvement_pct(base: float, new: float, smaller_is_better: bool = True) -> float:
    """Relative improvement in percent, sign-positive when ``new`` wins."""
    if base == 0:
        return 0.0
    delta = (base - new) / abs(base) if smaller_is_better else (new - base) / abs(base)
    return 100.0 * delta


@dataclass(frozen=True)
class AdaptiveComparison:
    """One Table II row group."""

    system: str
    relaxed: ScheduleMetrics
    adaptive: ScheduleMetrics
    relax_base: float

    def improvements(self) -> dict[str, float]:
        """Improvement percentages for the four Table II metrics."""
        return {
            "wait": improvement_pct(self.relaxed.wait, self.adaptive.wait),
            "bsld": improvement_pct(self.relaxed.bsld, self.adaptive.bsld),
            "util": improvement_pct(
                self.relaxed.util, self.adaptive.util, smaller_is_better=False
            ),
            "violation": improvement_pct(
                self.relaxed.violation, self.adaptive.violation
            ),
        }


def run_use_case2(
    trace: Trace,
    relax_base: float = 0.1,
    policy: str = "fcfs",
    max_jobs: int | None = None,
) -> AdaptiveComparison:
    """Compare relaxed vs adaptive-relaxed backfilling on one trace.

    The adaptive run receives the relaxed run's maximum observed queue
    length as Eq. (1)'s denominator, mirroring the paper's use of the known
    trace-wide maximum.
    """
    workload = workload_from_trace(trace)
    if max_jobs is not None:
        workload = workload.slice(max_jobs)
    capacity = trace.system.schedulable_units

    res_rel = simulate(
        workload, capacity, policy, relaxed(relax_base), track_queue=True
    )
    max_q = int(res_rel.queue_samples.max()) if len(res_rel.queue_samples) else 0
    res_ada = simulate(
        workload,
        capacity,
        policy,
        adaptive_relaxed(relax_base, max_queue_len=max_q or None),
    )
    return AdaptiveComparison(
        system=trace.system.name,
        relaxed=compute_metrics(res_rel),
        adaptive=compute_metrics(res_ada),
        relax_base=relax_base,
    )
