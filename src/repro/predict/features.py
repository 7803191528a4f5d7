"""Feature engineering for job-runtime prediction.

Features use only information available *at prediction time*: the request
itself (cores, walltime), the submitting user's history (previous runtimes —
the Last2 signal), the clock, and the queue state.  Per-user history columns
are built with shifted expanding statistics so no job sees its own outcome
(no leakage).

The dataset is kept in submission order so chronological train/test splits
are honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.schema import JobStatus, Trace
from ..traces.synth import queue_length_at_submit

__all__ = ["PredictionDataset", "build_dataset", "FEATURE_NAMES"]

FEATURE_NAMES: tuple[str, ...] = (
    "log_cores",
    "log_last_runtime",
    "log_last2_mean",
    "log_user_mean_runtime",
    "user_job_count",
    "hour_of_day",
    "log_queue_length",
    "log_req_walltime",
)


@dataclass
class PredictionDataset:
    """Design matrix + targets for runtime prediction, in submission order."""

    X: np.ndarray
    #: actual runtime (the prediction target), seconds
    runtime: np.ndarray
    #: Last2 estimate in seconds (the Tsafrir heuristic, for the Last2 model)
    last2: np.ndarray
    #: right-censoring mask: Killed jobs only reveal a runtime lower bound
    censored: np.ndarray
    user: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.runtime)

    def with_elapsed(self, elapsed: float) -> np.ndarray:
        """Design matrix with a constant elapsed-time column appended."""
        col = np.full((self.n, 1), np.log1p(elapsed))
        return np.hstack([self.X, col])

    def subset(self, mask: np.ndarray) -> "PredictionDataset":
        """Row subset."""
        return PredictionDataset(
            X=self.X[mask],
            runtime=self.runtime[mask],
            last2=self.last2[mask],
            censored=self.censored[mask],
            user=self.user[mask],
            feature_names=self.feature_names,
        )


def build_dataset(trace: Trace) -> PredictionDataset:
    """Build the prediction dataset from a trace.

    Per-user expanding statistics are computed with one pass over each
    user's job sequence (vectorized cumulative sums over the user's rows).
    """
    tr = trace.sorted_by_submit()
    jobs = tr.jobs
    n = jobs.num_rows
    runtime = jobs["runtime"].astype(float)
    cores = jobs["cores"].astype(float)
    submit = jobs["submit_time"]
    users = jobs["user_id"]
    log_rt = np.log(np.maximum(runtime, 1.0))

    last_rt = np.zeros(n)
    last2_mean = np.zeros(n)
    user_mean = np.zeros(n)
    user_count = np.zeros(n)

    for u in np.unique(users):
        idx = np.flatnonzero(users == u)
        r = log_rt[idx]
        k = len(idx)
        counts = np.arange(k, dtype=float)
        # shifted expanding mean: mean of runs strictly before each job
        cum = np.concatenate([[0.0], np.cumsum(r)])[:-1]
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_prior = np.where(counts > 0, cum / np.maximum(counts, 1), 0.0)
        prev1 = np.concatenate([[0.0], r[:-1]])[:k]
        prev2 = np.concatenate([[0.0, 0.0], r[:-2]])[:k]
        l2 = np.where(
            counts >= 2,
            (prev1 + prev2) / 2.0,
            np.where(counts == 1, prev1, 0.0),
        )
        last_rt[idx] = prev1
        last2_mean[idx] = l2
        user_mean[idx] = mean_prior
        user_count[idx] = counts

    queue_len = queue_length_at_submit(submit, jobs["wait_time"])
    hour = (submit % 86400.0) / 3600.0
    req_wall = jobs["req_walltime"].astype(float)
    log_wall = np.where(np.isfinite(req_wall), np.log(np.maximum(req_wall, 1.0)), 0.0)

    X = np.column_stack(
        [
            np.log2(np.maximum(cores, 1.0)),
            last_rt,
            last2_mean,
            user_mean,
            np.log1p(user_count),
            hour,
            np.log1p(queue_len),
            log_wall,
        ]
    )
    # Last2 heuristic in seconds (0-history jobs fall back to user/global mean)
    global_mean = float(np.exp(log_rt.mean()))
    last2_seconds = np.where(
        user_count >= 1, np.exp(last2_mean), global_mean
    )

    return PredictionDataset(
        X=X,
        runtime=runtime,
        last2=last2_seconds,
        censored=jobs["status"] == int(JobStatus.KILLED),
        user=users,
    )
