"""Canonical job-trace schema.

Every analysis in :mod:`repro.core` and every simulation in
:mod:`repro.sched` consumes a :class:`Trace`: a :class:`~repro.frame.Frame`
with the canonical columns below plus the :class:`SystemSpec` of the cluster
the jobs ran on.  This mirrors the paper's "dataset alignment" step (§II-B):
only the attributes common across all five systems are kept.

Canonical columns (all times in seconds since trace start):

=================  =======  ====================================================
column             dtype    meaning
=================  =======  ====================================================
``job_id``         int64    unique id within the trace
``user_id``        int64    submitting user (``-1`` when unknown; 0 is a real id)
``submit_time``    float64  submission timestamp
``wait_time``      float64  queue wait observed in the source system
``runtime``        float64  actual execution time
``cores``          int64    requested cores (CPUs for HPC, GPUs for DL systems)
``req_walltime``   float64  user-requested wall time (NaN when unavailable)
``status``         int64    :class:`JobStatus` code
``vc``             int64    virtual-cluster id (0 when none; ``-1`` when unknown)
=================  =======  ====================================================
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..frame import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .systems import SystemSpec

__all__ = [
    "JobStatus",
    "Trace",
    "CANONICAL_COLUMNS",
    "REQUIRED_COLUMNS",
    "per_trace",
]

#: instance attribute holding a trace's :func:`per_trace` results
_MEMO = "_memo"


class JobStatus(enum.IntEnum):
    """Final job status, aligned across systems per the paper's §IV-A.

    ``PASSED``  — finished normally.
    ``FAILED``  — aborted by a technical fault (SIGABRT/SIGSEGV class).
    ``KILLED``  — terminated externally (SIGTERM/SIGKILL class, incl.
    user cancellation and walltime kills).
    """

    PASSED = 0
    FAILED = 1
    KILLED = 2

    @property
    def label(self) -> str:
        """Capitalized display label as used in the paper's figures."""
        return self.name.capitalize()


CANONICAL_COLUMNS: tuple[str, ...] = (
    "job_id",
    "user_id",
    "submit_time",
    "wait_time",
    "runtime",
    "cores",
    "req_walltime",
    "status",
    "vc",
)

#: Columns that must be present; the rest are filled with defaults.
REQUIRED_COLUMNS: tuple[str, ...] = (
    "submit_time",
    "runtime",
    "cores",
)


@dataclass
class Trace:
    """A job trace bound to the system it was collected on.

    Immutable by convention: analyses memoize their results on the instance
    (:func:`per_trace`), so derive a new trace (``filter``, ``window``,
    ``Trace(...)``) instead of writing into its column arrays.  Replacing
    ``jobs`` wholesale drops the memoized results.
    """

    system: "SystemSpec"
    jobs: Frame
    #: free-form provenance (generator seed, source file, time window...)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [c for c in REQUIRED_COLUMNS if c not in self.jobs]
        if missing:
            raise ValueError(f"trace missing required columns {missing}")
        self.jobs = _fill_defaults(self.jobs)

    def __setattr__(self, name: str, value) -> None:
        if name == "jobs":
            # memoized results describe the rows being replaced
            self.__dict__.pop(_MEMO, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs in the trace."""
        return self.jobs.num_rows

    @property
    def span_seconds(self) -> float:
        """Time between the first and last submission."""
        if self.num_jobs == 0:
            return 0.0
        t = self.jobs["submit_time"]
        return float(t.max() - t.min())

    def __getitem__(self, column: str) -> np.ndarray:
        return self.jobs[column]

    def filter(self, mask: np.ndarray) -> "Trace":
        """Trace restricted to rows where ``mask`` holds."""
        return Trace(self.system, self.jobs.filter(mask), dict(self.meta))

    def sorted_by_submit(self) -> "Trace":
        """Trace with rows in submission order.

        A trace already in submission order is returned as is: the stable
        sort would leave every row where it is.
        """
        t = self.jobs["submit_time"]
        if np.all(t[1:] >= t[:-1]):
            return self
        return Trace(
            self.system, self.jobs.sort_by("submit_time"), dict(self.meta)
        )

    def core_hours(self) -> np.ndarray:
        """Per-job consumed core-hours (runtime × cores)."""
        return self.jobs["runtime"] * self.jobs["cores"] / 3600.0

    def turnaround(self) -> np.ndarray:
        """Per-job turnaround (wait + runtime)."""
        return self.jobs["wait_time"] + self.jobs["runtime"]

    def arrival_intervals(self) -> np.ndarray:
        """Deltas between consecutive submissions (submission order)."""
        t = np.sort(self.jobs["submit_time"])
        return np.diff(t)

    def status_mask(self, status: JobStatus) -> np.ndarray:
        """Boolean mask of jobs with the given final status."""
        return self.jobs["status"] == int(status)

    def window(self, start: float, end: float) -> "Trace":
        """Jobs submitted in ``[start, end)``."""
        t = self.jobs["submit_time"]
        return self.filter((t >= start) & (t < end))


def _fill_defaults(jobs: Frame) -> Frame:
    """Add any missing optional canonical columns with default values."""
    n = jobs.num_rows
    out = jobs
    if "job_id" not in out:
        out = out.with_column("job_id", np.arange(n, dtype=np.int64))
    if "user_id" not in out:
        out = out.with_column("user_id", np.zeros(n, dtype=np.int64))
    if "wait_time" not in out:
        out = out.with_column("wait_time", np.zeros(n, dtype=float))
    if "req_walltime" not in out:
        out = out.with_column("req_walltime", np.full(n, np.nan))
    if "status" not in out:
        out = out.with_column(
            "status", np.full(n, int(JobStatus.PASSED), dtype=np.int64)
        )
    if "vc" not in out:
        out = out.with_column("vc", np.zeros(n, dtype=np.int64))
    # enforce dtypes on the numeric core (columns that conform are shared)
    submit, runtime = out["submit_time"], out["runtime"]
    out = out.with_column("submit_time", submit.astype(float, copy=False))
    out = out.with_column("runtime", runtime.astype(float, copy=False))
    out = out.with_column("cores", out["cores"].astype(np.int64, copy=False))
    return out


def per_trace(fn: Callable) -> Callable:
    """Memoize the analysis ``fn(trace, *args)`` on the trace instance.

    Results are keyed by ``fn`` and its bound arguments (defaults applied,
    so ``f(t)`` and ``f(t, k=default)`` share one entry); every argument
    after the trace must be hashable.  The memo lives in the trace's own
    ``__dict__``: it is freed with the trace, dropped when ``jobs`` is
    replaced, and never shared with derived traces (``filter``,
    ``window``).  Arrays inside a memoized result are made read-only, so a
    caller that writes into one fails loudly instead of corrupting the
    next caller's result.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoized(trace: Trace, *args, **kwargs):
        bound = signature.bind(trace, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, *list(bound.arguments.values())[1:])
        memo = trace.__dict__.setdefault(_MEMO, {})
        if key not in memo:
            memo[key] = _read_only(fn(trace, *args, **kwargs))
        return memo[key]

    return memoized


def _read_only(value):
    """Clear the write flag of every array reachable in ``value``."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value
