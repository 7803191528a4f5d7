"""Extension: queue-policy comparison across the simulatable systems.

The standard scheduler-paper grid: every queue-ordering policy crossed with
the three HPC/hybrid workloads under EASY backfilling, reporting wait,
bounded slowdown, utilization and the backfill rate — context for where
the paper's FCFS-based use case 2 sits in the policy space.

The policy × system grid runs through :func:`repro.runner.run_sweep`;
pass ``jobs`` / ``cache_dir`` to parallelize and memoize the cells, and
``timeout`` / ``on_error`` / ``retries`` / ``journal`` to harden long
grids against hung or crashing workers (docs/PARALLELISM.md,
"Crash-safe sweeps").  Under ``on_error="skip"`` failed cells render as
``FAILED`` rows instead of aborting the whole grid.
"""

from __future__ import annotations

from pathlib import Path

from ..runner import (
    ResultCache,
    RetryPolicy,
    SimTask,
    SweepJournal,
    WorkloadSpec,
    run_sweep,
)
from ..sched import EASY
from ..viz import percent, render_table, seconds
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult

__all__ = ["run"]

SYSTEMS = ("blue_waters", "mira", "theta")


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    policies: tuple[str, ...] = ("fcfs", "sjf", "wfp3", "unicef", "f1", "fairshare"),
    max_jobs: int = 6000,
    jobs: int = 1,
    cache_dir: str | Path | ResultCache | None = None,
    timeout: float | None = None,
    on_error: str = "raise",
    retries: RetryPolicy | int | None = None,
    journal: SweepJournal | str | Path | None = None,
    perf=None,
) -> ExperimentResult:
    """Policy x system grid under EASY backfilling."""
    tasks = [
        SimTask(
            label=f"{system}/{policy}",
            workload=WorkloadSpec(
                system=system, days=days, seed=seed, max_jobs=max_jobs
            ),
            policy=policy,
            backfill=EASY,
        )
        for system in SYSTEMS
        for policy in policies
    ]
    sweep = {
        r.label: r
        for r in run_sweep(
            tasks,
            jobs=jobs,
            cache=cache_dir,
            timeout=timeout,
            on_error=on_error,
            retry=retries,
            journal=journal,
            perf=perf,
        )
        if r is not None
    }

    result = ExperimentResult(
        exp_id="ext_policies",
        title="Extension: queue-policy comparison under EASY backfilling",
    )
    data = {}
    for system in SYSTEMS:
        rows = []
        data[system] = {}
        n_jobs = 0
        for policy in policies:
            cell = sweep.get(f"{system}/{policy}")
            if cell is None:
                # on_error="skip" left a hole; keep the rest of the grid
                rows.append([policy, "FAILED", "-", "-", "-"])
                continue
            metrics = cell.schedule_metrics()
            backfill_rate = cell.summary["backfill_rate"]
            n_jobs = metrics.n_jobs
            rows.append(
                [
                    policy,
                    seconds(metrics.wait),
                    f"{metrics.bsld:.2f}",
                    f"{metrics.util:.3f}",
                    percent(backfill_rate),
                ]
            )
            data[system][policy] = {
                **metrics.as_dict(),
                "backfill_rate": backfill_rate,
            }
        result.add(
            render_table(
                ["policy", "avg wait", "bsld", "util", "backfilled"],
                rows,
                title=f"{system} ({n_jobs} jobs)",
            )
        )
    result.data = data
    return result
