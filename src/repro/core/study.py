"""High-level cross-system study orchestrator — the library's front door.

``CrossSystemStudy`` bundles the five target systems' traces and exposes
the paper's analyses as one method each, so the quickstart is::

    from repro import CrossSystemStudy
    study = CrossSystemStudy.generate(days=30, seed=0)
    study.geometry()          # Fig 1
    study.takeaways()         # the 8 takeaways
    study.prediction()        # Fig 12 (use case 1)
    study.backfilling()       # Table II (use case 2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..traces.schema import Trace
from ..traces.synth import generate_all_traces
from .corehours import CoreHourShares, core_hour_shares
from .failures import StatusShares, status_shares
from .geometry import GeometrySummary, analyze_geometry
from .takeaways import TakeawayResult, evaluate_takeaways
from .users import (
    QueueConditioned,
    RepetitionSummary,
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
)
from .utilization import UtilizationSeries, analyze_utilization
from .waiting import WaitByClass, WaitSummary, wait_by_class, wait_summary

if TYPE_CHECKING:
    from ..predict.harness import ElapsedComparison
    from ..sched.adaptive import AdaptiveComparison

__all__ = ["CrossSystemStudy"]

#: systems the Table II simulation runs on (those with walltimes)
SIMULATABLE = ("blue_waters", "mira", "theta")


@dataclass
class CrossSystemStudy:
    """A set of per-system traces plus every paper analysis."""

    traces: dict[str, Trace]
    meta: dict = field(default_factory=dict)

    @classmethod
    def generate(
        cls,
        days: float = 30.0,
        seed: int = 0,
        systems: list[str] | None = None,
    ) -> "CrossSystemStudy":
        """Generate synthetic traces for the five target systems."""
        traces = generate_all_traces(days=days, seed=seed, systems=systems)
        return cls(traces=traces, meta={"days": days, "seed": seed})

    @classmethod
    def from_traces(cls, traces: dict[str, Trace]) -> "CrossSystemStudy":
        """Wrap externally loaded traces (e.g. real SWF files)."""
        return cls(traces=dict(traces))

    def systems(self) -> list[str]:
        """Names of the systems under study."""
        return list(self.traces)

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def geometry(self) -> dict[str, GeometrySummary]:
        """Fig 1: job geometries per system."""
        return {n: analyze_geometry(t) for n, t in self.traces.items()}

    def core_hours(self) -> dict[str, CoreHourShares]:
        """Fig 2: core-hour domination per system."""
        return {n: core_hour_shares(t) for n, t in self.traces.items()}

    def utilization(self, n_buckets: int = 100) -> dict[str, list[UtilizationSeries]]:
        """Fig 3: utilization series per system."""
        return {
            n: analyze_utilization(t, n_buckets) for n, t in self.traces.items()
        }

    def waiting(self) -> dict[str, WaitSummary]:
        """Fig 4: wait/turnaround CDFs per system."""
        return {n: wait_summary(t) for n, t in self.traces.items()}

    def waiting_by_class(self) -> dict[str, WaitByClass]:
        """Fig 5: wait vs geometry classes per system."""
        return {n: wait_by_class(t) for n, t in self.traces.items()}

    def failures(self) -> dict[str, StatusShares]:
        """Fig 6: status distribution per system."""
        return {n: status_shares(t) for n, t in self.traces.items()}

    def repetition(self, **kwargs) -> dict[str, RepetitionSummary]:
        """Fig 8: per-user resource-config repetition."""
        return {n: repetition_summary(t, **kwargs) for n, t in self.traces.items()}

    def size_vs_queue(self) -> dict[str, QueueConditioned]:
        """Fig 9: requested size vs queue length."""
        return {n: size_vs_queue(t) for n, t in self.traces.items()}

    def runtime_vs_queue(self) -> dict[str, QueueConditioned]:
        """Fig 10: runtime vs queue length."""
        return {n: runtime_vs_queue(t) for n, t in self.traces.items()}

    # ------------------------------------------------------------------
    # Takeaways and use cases
    # ------------------------------------------------------------------
    def takeaways(self) -> list[TakeawayResult]:
        """Evaluate the paper's eight takeaways on these traces."""
        return evaluate_takeaways(self.traces)

    def prediction(self, systems: list[str] | None = None, **kwargs) -> dict[str, ElapsedComparison]:
        """Use case 1 (Fig 12): elapsed-time runtime prediction, every
        system's fits on one worker pool."""
        # the use cases import the prediction and scheduler stacks, which the
        # characterization never needs, so they load on first use
        from ..predict.harness import compare_elapsed

        names = systems or self.systems()
        comparisons = compare_elapsed([self.traces[n] for n in names], **kwargs)
        return dict(zip(names, comparisons))

    def backfilling(
        self, systems: list[str] | None = None, **kwargs
    ) -> dict[str, AdaptiveComparison]:
        """Use case 2 (Table II): adaptive relaxed backfilling."""
        from ..sched.adaptive import run_use_case2

        names = systems or [s for s in SIMULATABLE if s in self.traces]
        return {n: run_use_case2(self.traces[n], **kwargs) for n in names}
