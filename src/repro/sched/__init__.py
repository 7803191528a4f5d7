"""Discrete-event cluster scheduling simulator (SchedGym equivalent).

The engines here are performance-oriented (event heaps, incremental
free-core ledgers, vectorized ranking).  Their correctness is guarded by
:mod:`repro.testkit`: a deliberately simple O(n²) reference scheduler
(:mod:`repro.testkit.oracle`) that must match these engines **bit for
bit**, a reusable invariant battery (:mod:`repro.testkit.invariants`), and
a differential workload fuzzer with reproducer shrinking
(``python -m repro.cli fuzz``).  See ``docs/TESTING.md``.
"""

from .adaptive import AdaptiveComparison, improvement_pct, run_use_case2
from .backfill import EASY, NO_BACKFILL, BackfillConfig, adaptive_relaxed, relaxed
from .conservative import simulate_conservative
from .engine import SimResult, simulate
from .export import result_to_trace
from .fast import simulate_fast
from .faults import NO_FAULTS, FaultConfig, FaultSimResult, simulate_with_faults
from .job import SimWorkload, workload_from_trace
from .metrics import (
    BSLD_BOUND,
    ResilienceMetrics,
    ScheduleMetrics,
    bounded_slowdown,
    compute_metrics,
    compute_resilience_metrics,
    observed_metrics,
)
from .nodes import NodeCluster, PackedSimResult, simulate_packed
from .policies import POLICIES, FairSharePolicy, Policy, get_policy
from .predictive import PredictiveOutcome, simulate_with_predictions
from .virtual import (
    VirtualClusterResult,
    isolation_cost,
    simulate_virtual_clusters,
)

__all__ = [
    "simulate",
    "simulate_fast",
    "simulate_conservative",
    "simulate_with_faults",
    "FaultConfig",
    "FaultSimResult",
    "NO_FAULTS",
    "ResilienceMetrics",
    "compute_resilience_metrics",
    "simulate_virtual_clusters",
    "simulate_with_predictions",
    "run_use_case2",
    "AdaptiveComparison",
    "improvement_pct",
    "VirtualClusterResult",
    "PredictiveOutcome",
    "isolation_cost",
    "NodeCluster",
    "PackedSimResult",
    "simulate_packed",
    "SimResult",
    "result_to_trace",
    "SimWorkload",
    "workload_from_trace",
    "Policy",
    "FairSharePolicy",
    "POLICIES",
    "get_policy",
    "BackfillConfig",
    "EASY",
    "NO_BACKFILL",
    "relaxed",
    "adaptive_relaxed",
    "ScheduleMetrics",
    "compute_metrics",
    "observed_metrics",
    "bounded_slowdown",
    "BSLD_BOUND",
]
