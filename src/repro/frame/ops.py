"""Vectorized statistical helpers shared by the analysis layer.

These are the numerical primitives behind the paper's figures: empirical
CDFs (Fig 1, 4), violin summaries (Fig 1, 11), histograms, and weighted
shares (Fig 2, 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ecdf",
    "ecdf_at",
    "histogram_counts",
    "share",
    "cross_shares",
    "ViolinSummary",
    "violin_summary",
    "log_bins",
]


def ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of ``values``.

    Returns ``(x, p)`` where ``x`` is sorted unique support and ``p`` is
    P(X <= x).  Empty input yields two empty arrays.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.array([]), np.array([])
    x = np.sort(values)
    uniq, counts = np.unique(x, return_counts=True)
    p = np.cumsum(counts) / len(x)
    return uniq, p


def ecdf_at(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at arbitrary ``points``."""
    values = np.sort(np.asarray(values, dtype=float))
    points = np.asarray(points, dtype=float)
    if values.size == 0:
        return np.zeros_like(points)
    return np.searchsorted(values, points, side="right") / len(values)


def histogram_counts(values: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Counts of values falling into ``bins`` edges (len(bins)-1 counts)."""
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=bins)
    return counts


def share(
    weights: np.ndarray | None, labels: np.ndarray, order: list
) -> np.ndarray:
    """Fraction of total ``weights`` held by each label in ``order``.

    Used for core-hour domination (Fig 2) and status core-hour shares
    (Fig 6).  Labels absent from the data contribute zero.  Empty or
    all-zero ``weights`` yield an all-zero vector rather than an error —
    a system with no jobs dominates nothing.

    ``weights=None`` weighs every row one (job-count shares; ``order``
    then holds non-negative integer labels).  Those shares are
    ``count / n``, taken from one :func:`cross_shares` — exactly what the
    masked sum of ones over ``n`` gives.  Real weights keep the masked
    sums: another summation order would round differently.
    """
    if weights is None:
        n = len(labels)
        if n == 0:
            return np.zeros(len(order))
        shares, _ = cross_shares(None, labels, 1, max(order) + 1)
        return shares[0, order]
    weights = np.asarray(weights, dtype=float)
    labels = np.asarray(labels)
    total = weights.sum()
    if total <= 0:
        return np.zeros(len(order))
    return np.array(
        [weights[labels == lab].sum() / total for lab in order]
    )


def cross_shares(
    rows: np.ndarray | None, cols: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Share of each row label's jobs that carry each column label.

    ``rows`` holds integer labels in ``0 .. n_rows - 1`` (``None``: one
    row holding every job); ``cols`` holds integer labels, and one outside
    ``0 .. n_cols - 1`` counts only in its row's size.  Returns the
    ``(n_rows, n_cols)`` shares (NaN for an empty row) and the int64 row
    sizes.  One ``np.bincount`` over a combined row/column code replaces a
    full-length mask and compaction per label; each share is
    ``count / size``, exactly what the mean of a label mask gives.
    """
    cols = np.asarray(cols)
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        cols = np.where((cols >= 0) & (cols < n_cols), cols, n_cols)
    width = n_cols + 1  # the last column counts out-of-range labels
    if rows is None:
        code = cols.astype(np.intp)
    else:
        code = np.asarray(rows).astype(np.intp)
        code *= width
        code += cols
    joint = np.bincount(code, minlength=n_rows * width).reshape(n_rows, width)
    sizes = joint.sum(axis=1)
    shares = np.full((n_rows, n_cols), np.nan)
    filled = sizes > 0
    shares[filled] = joint[filled, :n_cols] / sizes[filled, None]
    return shares, sizes


@dataclass(frozen=True)
class ViolinSummary:
    """Distribution summary mirroring what a violin plot conveys."""

    count: int
    minimum: float
    p05: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float
    mean: float
    #: location of highest estimated density (the violin's widest point)
    mode: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "count": self.count,
            "min": self.minimum,
            "p05": self.p05,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.maximum,
            "mean": self.mean,
            "mode": self.mode,
        }


def violin_summary(values: np.ndarray, log_density: bool = True) -> ViolinSummary:
    """Summarize a distribution as violin-plot statistics.

    The mode is estimated from a histogram in log-space when
    ``log_density`` is set (appropriate for runtimes spanning decades,
    as in the paper's Fig 1a / Fig 11).  Empty input yields a
    ``count == 0`` summary with NaN statistics rather than an error, so
    per-group summaries of sparse traces stay renderable.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        nan = float("nan")
        return ViolinSummary(0, nan, nan, nan, nan, nan, nan, nan, nan, nan)
    qs = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    positive = values[values > 0]
    if log_density and positive.size >= 2:
        logs = np.log10(positive)
        lo, hi = logs.min(), logs.max()
        if hi - lo < 1e-12:
            mode = float(positive[0])
        else:
            counts, edges = np.histogram(logs, bins=min(50, positive.size))
            centre = (edges[:-1] + edges[1:]) / 2
            mode = float(10 ** centre[np.argmax(counts)])
    else:
        counts, edges = np.histogram(values, bins=min(50, values.size))
        centre = (edges[:-1] + edges[1:]) / 2
        mode = float(centre[np.argmax(counts)]) if counts.size else float(values[0])
    return ViolinSummary(
        count=int(values.size),
        minimum=float(values.min()),
        p05=float(qs[0]),
        p25=float(qs[1]),
        median=float(qs[2]),
        p75=float(qs[3]),
        p95=float(qs[4]),
        maximum=float(values.max()),
        mean=float(values.mean()),
        mode=mode,
    )


def log_bins(lo: float, hi: float, per_decade: int = 10) -> np.ndarray:
    """Logarithmically spaced bin edges covering ``[lo, hi]``."""
    if lo <= 0:
        raise ValueError("log bins need lo > 0")
    lo_e, hi_e = np.log10(lo), np.log10(hi)
    n = max(2, int(np.ceil((hi_e - lo_e) * per_decade)) + 1)
    return np.logspace(lo_e, hi_e, n)
