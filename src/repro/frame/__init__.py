"""Columnar dataframe substrate (NumPy-backed pandas replacement)."""

from .frame import Frame
from .groupby import GroupBy
from .io import from_csv_string, read_csv, to_csv_string, write_csv
from .ops import (
    ViolinSummary,
    cross_shares,
    ecdf,
    ecdf_at,
    histogram_counts,
    log_bins,
    share,
    violin_summary,
)

__all__ = [
    "Frame",
    "GroupBy",
    "read_csv",
    "write_csv",
    "to_csv_string",
    "from_csv_string",
    "ecdf",
    "ecdf_at",
    "histogram_counts",
    "share",
    "cross_shares",
    "ViolinSummary",
    "violin_summary",
    "log_bins",
]
