"""Vectorized statistical helpers shared by the analysis layer.

These are the numerical primitives behind the paper's figures: empirical
CDFs (Fig 1, 4), violin summaries (Fig 1, 11), hour-of-day counts (Fig 1
and the fitted diurnal profile of ``repro clone``), and weighted shares
(Fig 2, 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ecdf_at",
    "hourly_counts",
    "share",
    "cross_shares",
    "ViolinSummary",
    "violin_summary",
    "violin_from_sorted",
]


def ecdf_at(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at arbitrary ``points``.

    Sorted ``values`` are searched.  Others are not sorted: for a few
    probes, counting ``values <= p`` per probe is faster.  Both read
    ``np.searchsorted(np.sort(values), points, "right") / len(values)``:
    NaN values count under no probe, and a NaN probe reads 1.0.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    if values.size == 0:
        return np.zeros_like(points)
    if np.all(values[1:] >= values[:-1]):
        counts = np.searchsorted(values, points, side="right")
    else:
        counts = np.array(
            [
                np.count_nonzero(values <= p) if p == p else values.size
                for p in points.ravel().tolist()
            ]
        ).reshape(points.shape)
    return counts / len(values)


def hourly_counts(local: np.ndarray) -> np.ndarray:
    """Jobs per hour of day (float, length 24) of sorted local times.

    ``np.searchsorted`` finds the exact hour boundaries ``3600 * k`` in
    ``local`` (which must be non-decreasing), and hour ``k`` adds to hour
    of day ``k % 24``: the floor of ``local / 3600`` without a division
    per job.  The boundary array spans ``local``, one float per hour.
    Non-finite times have no hour and count nowhere.
    """
    lo = np.searchsorted(local, -np.inf, side="right")
    hi = np.searchsorted(local, np.inf, side="left")
    local = local[lo:hi]
    if len(local) == 0:
        return np.zeros(24)
    # the rounded division may land one hour late, never early: start one
    # hour before it; the last hour's count runs to the end
    first = int(np.floor(local[0] / 3600.0)) - 1
    last = int(np.floor(local[-1] / 3600.0))
    hours = np.arange(first, last + 1)
    starts = np.searchsorted(local, 3600.0 * hours, side="left")
    per_hour = np.diff(starts, append=len(local))
    return np.bincount(hours % 24, weights=per_hour, minlength=24)


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
    return violin_from_sorted(values, np.sort(values), log_density)


def violin_from_sorted(
    values: np.ndarray, ordered: np.ndarray, log_density: bool = True
) -> ViolinSummary:
    """:func:`violin_summary` of ``values`` (float) given
    ``ordered = np.sort(values)``.

    The quantiles read ``ordered``: they are order statistics, and
    ``np.quantile`` selects them from sorted input far faster.  The mean
    and the mode read ``values`` in their own order, because pairwise
    summation and the first positive value depend on it.
    """
    if values.size == 0:
        nan = float("nan")
        return ViolinSummary(0, nan, nan, nan, nan, nan, nan, nan, nan, nan)
    qs = np.quantile(ordered, [0.05, 0.25, 0.5, 0.75, 0.95])
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
        try:
            counts, edges = np.histogram(values, bins=min(50, values.size))
        except ValueError:  # a span too narrow for that many finite bins
            counts, edges = np.histogram(values, bins=1)
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
