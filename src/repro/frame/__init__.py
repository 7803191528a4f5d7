"""Columnar dataframe substrate (NumPy-backed pandas replacement)."""

from .frame import Frame
from .ops import (
    ViolinSummary,
    cross_shares,
    ecdf_at,
    hourly_counts,
    share,
    violin_from_sorted,
    violin_summary,
)

__all__ = [
    "Frame",
    "ecdf_at",
    "hourly_counts",
    "share",
    "cross_shares",
    "ViolinSummary",
    "violin_summary",
    "violin_from_sorted",
]
