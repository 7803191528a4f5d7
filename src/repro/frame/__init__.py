"""Columnar dataframe substrate (NumPy-backed pandas replacement)."""

from .frame import Frame
from .groupby import GroupBy
from .ops import (
    ViolinSummary,
    cross_shares,
    ecdf,
    ecdf_at,
    histogram_counts,
    log_bins,
    share,
    violin_from_sorted,
    violin_summary,
)

__all__ = [
    "Frame",
    "GroupBy",
    "ecdf",
    "ecdf_at",
    "histogram_counts",
    "share",
    "cross_shares",
    "ViolinSummary",
    "violin_summary",
    "violin_from_sorted",
    "log_bins",
]
