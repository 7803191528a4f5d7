"""Per-user behaviour analysis (paper §V, Fig 8-11)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame import ViolinSummary, cross_shares, violin_summary
from ..traces.categorize import (
    minimal_runtime_mask,
    minimal_size_mask,
    trace_length_class,
    trace_size_class,
)
from ..traces.schema import JobStatus, Trace, per_trace
from ..traces.synth import queue_length_at_submit

__all__ = [
    "config_groups_for_user",
    "RepetitionSummary",
    "repetition_summary",
    "QueueConditioned",
    "size_vs_queue",
    "runtime_vs_queue",
    "UserStatusProfile",
    "top_user_status_profiles",
]


# ----------------------------------------------------------------------
# Fig 8: repeated resource-configurations
# ----------------------------------------------------------------------
def config_groups_for_user(
    cores: np.ndarray, runtime: np.ndarray, tolerance: float = 0.10
) -> np.ndarray:
    """Group one user's jobs by resource-configuration (paper §V-A).

    Two jobs share a group iff they request exactly the same cores and
    their runtimes stay within ``tolerance`` of the group's running mean.
    Returns a group id per job (order-independent ids).

    Greedy single-pass per distinct core count over sorted runtimes: a job
    joins the current group while ``|rt - mean| <= tolerance * mean``,
    otherwise it opens a new group.
    """
    cores = np.asarray(cores)
    runtime = np.asarray(runtime, dtype=float)
    groups = np.full(len(cores), -1, dtype=np.int64)
    next_id = 0
    for c in np.unique(cores):
        idx = np.flatnonzero(cores == c)
        order = idx[np.argsort(runtime[idx], kind="stable")]
        ids = []
        mean = None
        count = 0
        # Python floats: the same IEEE arithmetic as NumPy scalars, faster
        for rt in runtime[order].tolist():
            if mean is not None and abs(rt - mean) <= tolerance * mean:
                # running mean update keeps the group's centre honest
                mean = (mean * count + rt) / (count + 1)
                count += 1
            else:
                next_id += 1
                mean = rt
                count = 1
            ids.append(next_id - 1)
        groups[order] = ids
    return groups


@dataclass(frozen=True)
class RepetitionSummary:
    """Fig 8 series: cumulative share of jobs in the top-k groups."""

    system: str
    #: cumulative share for k = 1..max_k, averaged over representative users
    cumulative_share: np.ndarray
    n_users: int

    def top(self, k: int) -> float:
        """Average share of jobs covered by each user's top-k groups."""
        k = min(k, len(self.cumulative_share))
        return float(self.cumulative_share[k - 1])


@per_trace
def repetition_summary(
    trace: Trace,
    max_k: int = 10,
    n_representative_users: int = 20,
    min_jobs: int = 30,
    tolerance: float = 0.10,
) -> RepetitionSummary:
    """Compute the Fig 8 curve for one trace.

    Representative users are the heaviest submitters with at least
    ``min_jobs`` jobs, as the paper averages over representative users.
    """
    users = trace["user_id"]
    uniq, counts = np.unique(users, return_counts=True)
    eligible = uniq[counts >= min_jobs]
    if len(eligible) == 0:
        eligible = uniq
    # heaviest first
    order = np.argsort(-counts[np.isin(uniq, eligible)])
    chosen = eligible[order][:n_representative_users]

    # group only the chosen users' rows; the stable sort keeps each
    # user's rows in trace order
    picked = np.flatnonzero(np.isin(users, chosen))
    by_user = picked[np.argsort(users[picked], kind="stable")]
    picked_users = users[by_user]
    starts = np.searchsorted(picked_users, chosen, side="left")
    ends = np.searchsorted(picked_users, chosen, side="right")

    curves = []
    cores = trace["cores"]
    runtime = trace["runtime"]
    for start, end in zip(starts, ends):
        rows = by_user[start:end]
        groups = config_groups_for_user(cores[rows], runtime[rows], tolerance)
        _, sizes = np.unique(groups, return_counts=True)
        sizes = np.sort(sizes)[::-1]
        cum = np.cumsum(sizes) / sizes.sum()
        # pad to max_k with the terminal value
        padded = np.ones(max_k)
        upto = min(max_k, len(cum))
        padded[:upto] = cum[:upto]
        curves.append(padded)
    return RepetitionSummary(
        system=trace.system.name,
        cumulative_share=np.mean(curves, axis=0),
        n_users=len(chosen),
    )


# ----------------------------------------------------------------------
# Fig 9 / Fig 10: queue-length-conditioned submissions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueueConditioned:
    """Category mix per queue-length class (short/middle/long queues).

    ``mix[q, c]`` is the fraction of jobs submitted under queue class ``q``
    that fall in category ``c``; categories are
    (minimal, small, middle, large) for sizes and
    (minimal, short, middle, long) for runtimes.
    """

    system: str
    kind: str  # "size" | "runtime"
    mix: np.ndarray  # shape (3, 4)
    queue_counts: np.ndarray
    #: queue length thresholds (Q/3, 2Q/3)
    thresholds: tuple

    def minimal_fraction(self) -> np.ndarray:
        """Fraction of minimal jobs per queue class — the headline trend."""
        return self.mix[:, 0]


@per_trace
def _queue_classes(trace: Trace) -> tuple[np.ndarray, tuple]:
    """Queue-length class (0/1/2, int8) of each job, in submission order."""
    tr = trace.sorted_by_submit()
    qlen = queue_length_at_submit(tr["submit_time"], tr["wait_time"])
    q_max = float(qlen.max()) if len(qlen) else 0.0
    if q_max <= 0:
        return np.zeros(len(qlen), dtype=np.int8), (0.0, 0.0)
    t1, t2 = q_max / 3.0, 2.0 * q_max / 3.0
    cls = np.where(qlen < t1, 0, np.where(qlen < t2, 1, 2)).astype(np.int8)
    return cls, (t1, t2)


@per_trace
def size_vs_queue(trace: Trace) -> QueueConditioned:
    """Fig 9: requested size mix per queue-length class.

    Categories: minimal (exactly 1 unit), then the standard small/middle/
    large classes with minimal jobs carved out of 'small'.
    """
    tr = trace.sorted_by_submit()
    q_cls, thresholds = _queue_classes(trace)
    s_cls = trace_size_class(tr) + 1  # shift: 1=small, 2=middle, 3=large
    minimal = minimal_size_mask(tr["cores"])
    categories = np.where(minimal, 0, s_cls)
    mix, counts = cross_shares(q_cls, categories, 3, 4)
    return QueueConditioned(
        system=trace.system.name,
        kind="size",
        mix=mix,
        queue_counts=counts,
        thresholds=thresholds,
    )


@per_trace
def runtime_vs_queue(trace: Trace) -> QueueConditioned:
    """Fig 10: runtime mix per queue-length class.

    Categories: minimal (<60s), short, middle, long, with minimal carved
    out of 'short'.
    """
    tr = trace.sorted_by_submit()
    q_cls, thresholds = _queue_classes(trace)
    l_cls = trace_length_class(tr) + 1
    minimal = minimal_runtime_mask(tr["runtime"])
    categories = np.where(minimal, 0, l_cls)
    mix, counts = cross_shares(q_cls, categories, 3, 4)
    return QueueConditioned(
        system=trace.system.name,
        kind="runtime",
        mix=mix,
        queue_counts=counts,
        thresholds=thresholds,
    )


# ----------------------------------------------------------------------
# Fig 11: per-user runtime distribution by status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UserStatusProfile:
    """Runtime-by-status violins for one user (one Fig 11 panel)."""

    system: str
    user: int
    n_jobs: int
    #: violin per status, keyed by status label
    violins: dict

    def separation(self) -> float:
        """log10 distance between Passed and Killed medians (the signal
        the elapsed-time predictor exploits)."""
        passed = self.violins.get("Passed")
        killed = self.violins.get("Killed")
        if not passed or not killed or passed.count == 0 or killed.count == 0:
            return 0.0
        return abs(np.log10(max(passed.median, 1e-9)) - np.log10(max(killed.median, 1e-9)))


def top_user_status_profiles(trace: Trace, n_users: int = 3) -> list[UserStatusProfile]:
    """Fig 11: profiles of the top-``n_users`` submitters."""
    users = trace["user_id"]
    uniq, counts = np.unique(users, return_counts=True)
    top = uniq[np.argsort(-counts)][:n_users]
    out = []
    for u in top:
        rows = np.flatnonzero(users == u)
        runtime = trace["runtime"][rows]
        statuses = trace["status"][rows]
        violins: dict[str, ViolinSummary] = {}
        for status in JobStatus:
            violins[status.label] = violin_summary(runtime[statuses == int(status)])
        out.append(
            UserStatusProfile(
                system=trace.system.name,
                user=int(u),
                n_jobs=len(rows),
                violins=violins,
            )
        )
    return out
