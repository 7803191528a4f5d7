"""Parallel sweep runner with an on-disk result cache.

The experiment campaigns (failure × policy × backfill grids, policy
comparison grids, Table II) are embarrassingly parallel: every cell is an
independent, deterministic simulation.  This package executes such sweeps
on a supervised pool of persistent worker processes with **bit-identical
results at any worker count**, and memoizes each cell in a
content-addressed on-disk cache so re-runs only recompute what changed
(workload, seed, cluster, policy, backfill, fault config, or the engine
code itself).  :class:`RunOptions` holds every execution setting.

See ``docs/PARALLELISM.md`` for the API, the cache-key contract, and the
determinism guarantee.
"""

from .cache import ResultCache, code_version, stable_hash
from .journal import SweepJournal
from .options import (
    ON_ERROR_POLICIES,
    RunOptions,
    add_run_arguments,
    run_options_from_args,
)
from .sweep import (
    SimTask,
    SweepStats,
    TaskResult,
    WorkloadSpec,
    derive_seed,
    run_sweep,
    workload_fingerprint,
)
from .watchdog import (
    FailureReport,
    RetryPolicy,
    SweepError,
    TaskFailure,
    is_transient,
)

__all__ = [
    "ResultCache",
    "code_version",
    "stable_hash",
    "SweepJournal",
    "ON_ERROR_POLICIES",
    "RunOptions",
    "add_run_arguments",
    "run_options_from_args",
    "SimTask",
    "SweepStats",
    "TaskResult",
    "WorkloadSpec",
    "derive_seed",
    "run_sweep",
    "workload_fingerprint",
    "FailureReport",
    "RetryPolicy",
    "SweepError",
    "TaskFailure",
    "is_transient",
]
