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

The names below load with their submodule on first use (PEP 562), so a
command that reads only the runner flags (:mod:`.options`) does not
import the sweep and, through it, the scheduler, prediction and ML stacks.
"""

from __future__ import annotations

import importlib

#: exported name -> submodule defining it
_EXPORTS = {
    "ResultCache": "cache",
    "code_version": "cache",
    "stable_hash": "cache",
    "SweepJournal": "journal",
    "ON_ERROR_POLICIES": "options",
    "RunOptions": "options",
    "add_run_arguments": "options",
    "run_options_from_args": "options",
    "SimTask": "sweep",
    "SweepStats": "sweep",
    "TaskResult": "sweep",
    "WorkloadSpec": "sweep",
    "derive_seed": "sweep",
    "run_sweep": "sweep",
    "workload_fingerprint": "sweep",
    "FailureReport": "watchdog",
    "RetryPolicy": "watchdog",
    "SweepError": "watchdog",
    "TaskFailure": "watchdog",
    "is_transient": "watchdog",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
