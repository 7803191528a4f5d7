"""Cross-system characterization core (the paper's primary contribution)."""

from .advisor import Recommendation, advise
from .compare import (
    WorkloadSignature,
    nearest_system,
    signature_distance,
    workload_signature,
)
from .report import build_report, write_report
from .corehours import CoreHourShares, core_hour_shares, dominating_class
from .failures import (
    STATUS_ORDER,
    StatusByClass,
    StatusShares,
    status_by_class,
    status_shares,
)
from .geometry import (
    GeometrySummary,
    allocation_summary,
    analyze_geometry,
    arrival_summary,
    runtime_summary,
)
from .study import CrossSystemStudy
from .takeaways import TakeawayResult, evaluate_takeaways
from .users import (
    QueueConditioned,
    RepetitionSummary,
    UserStatusProfile,
    config_groups_for_user,
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
    top_user_status_profiles,
)
from .utilization import UtilizationSeries, analyze_utilization, utilization_timeline
from .waiting import WaitByClass, WaitSummary, wait_by_class, wait_summary

__all__ = [
    "CrossSystemStudy",
    "build_report",
    "write_report",
    "advise",
    "Recommendation",
    "nearest_system",
    "workload_signature",
    "signature_distance",
    "WorkloadSignature",
    "analyze_geometry",
    "GeometrySummary",
    "runtime_summary",
    "arrival_summary",
    "allocation_summary",
    "core_hour_shares",
    "CoreHourShares",
    "dominating_class",
    "analyze_utilization",
    "utilization_timeline",
    "UtilizationSeries",
    "wait_summary",
    "wait_by_class",
    "WaitSummary",
    "WaitByClass",
    "status_shares",
    "status_by_class",
    "StatusShares",
    "StatusByClass",
    "STATUS_ORDER",
    "config_groups_for_user",
    "repetition_summary",
    "RepetitionSummary",
    "size_vs_queue",
    "runtime_vs_queue",
    "QueueConditioned",
    "top_user_status_profiles",
    "UserStatusProfile",
    "evaluate_takeaways",
    "TakeawayResult",
]
