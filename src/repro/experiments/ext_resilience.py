"""Extension: scheduling resilience under fault injection.

The paper's trace schema carries terminal statuses and a use case shows how
failed/killed jobs waste capacity, but its SchedGym experiments run on a
perfect machine.  This experiment stresses the backfilling comparison under
realistic failures: a seeded node MTBF/MTTR process plus intrinsic
FAILED/KILLED faults *calibrated from the workload's own status mix*, swept
against resilience policies (drop / retry / retry+checkpoint) and backfill
modes (EASY / relaxed / adaptive-relaxed).

Reported per cell: goodput vs wasted core-hours, effective utilization,
completed fraction and mean wait — answering "does the paper's
adaptive-relaxed advantage survive when the machine breaks?".

The 3×3×3 grid is embarrassingly parallel, so the cells run through
:func:`repro.runner.run_sweep`: pass ``jobs`` to fan out over workers and
``cache_dir`` to reuse previously computed cells across invocations
(``python -m repro.experiments ext_resilience --jobs 4 --cache-dir ...``).
"""

from __future__ import annotations

import math
from pathlib import Path

from ..runner import ResultCache, RunOptions, SimTask, WorkloadSpec, run_sweep
from ..sched import (
    EASY,
    FaultConfig,
    adaptive_relaxed,
    relaxed,
    workload_from_trace,
)
from ..viz import percent, render_table, seconds
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult, get_traces

__all__ = ["run", "build_sweep"]

HOUR = 3600.0
DAY = 86400.0

#: node-failure severity levels: per-node MTBF (seconds)
FAILURE_LEVELS: tuple[tuple[str, float], ...] = (
    ("none", math.inf),
    ("weekly", 7 * DAY),
    ("daily", 1 * DAY),
)

#: resilience policies: (max_attempts, checkpoint_interval)
RESILIENCE_POLICIES: tuple[tuple[str, int, float | None], ...] = (
    ("drop", 1, None),
    ("retry", 3, None),
    ("retry+ckpt", 3, HOUR / 2),
)


def build_sweep(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    system: str = "theta",
    max_jobs: int = 2500,
    n_nodes: int = 16,
    mttr_hours: float = 2.0,
    relax: float = 0.1,
) -> list[SimTask]:
    """The failure × resilience-policy × backfill-mode task grid.

    Exposed separately so benchmarks and the CI smoke test can run the
    exact experiment sweep through :func:`repro.runner.run_sweep` at any
    worker count.  Cell labels are ``"<failure>/<resilience>/<backfill>"``.
    """
    spec = WorkloadSpec(system=system, days=days, seed=seed, max_jobs=max_jobs)
    # the intrinsic mix is calibrated from the workload's recorded statuses;
    # materializing here hits the shared process-wide trace cache
    workload, _capacity = spec.materialize()
    backfills = (
        ("easy", EASY),
        ("relaxed", relaxed(relax)),
        ("adaptive", adaptive_relaxed(relax)),
    )
    tasks = []
    for flevel, mtbf in FAILURE_LEVELS:
        for rname, attempts, ckpt in RESILIENCE_POLICIES:
            for bname, backfill in backfills:
                cfg = FaultConfig.from_workload(
                    workload,
                    node_mtbf=mtbf,
                    node_mttr=mttr_hours * HOUR,
                    n_nodes=n_nodes,
                    max_attempts=attempts,
                    backoff_base=300.0,
                    checkpoint_interval=ckpt,
                    seed=seed,
                )
                tasks.append(
                    SimTask(
                        label=f"{flevel}/{rname}/{bname}",
                        workload=spec,
                        policy="fcfs",
                        backfill=backfill,
                        faults=cfg,
                    )
                )
    return tasks


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    system: str = "theta",
    max_jobs: int = 2500,
    n_nodes: int = 16,
    mttr_hours: float = 2.0,
    relax: float = 0.1,
    jobs: int | None = None,
    cache_dir: str | Path | ResultCache | None = None,
    options: RunOptions | None = None,
) -> ExperimentResult:
    """Failure-rate x resilience-policy x backfill-mode sweep.

    ``options`` (a :class:`repro.runner.RunOptions`; ``jobs`` /
    ``cache_dir`` override its fields) passes straight through to
    :func:`repro.runner.run_sweep` (docs/PARALLELISM.md, "Crash-safe
    sweeps"); under ``on_error="skip"`` missing cells render as
    ``FAILED`` rows.  A ``perf`` config enables cross-process performance
    tracing (docs/OBSERVABILITY.md, "Performance tracing").
    """
    trace = get_traces(days, seed)[system]
    workload = workload_from_trace(trace).slice(max_jobs)
    tasks = build_sweep(
        days=days,
        seed=seed,
        system=system,
        max_jobs=max_jobs,
        n_nodes=n_nodes,
        mttr_hours=mttr_hours,
        relax=relax,
    )
    sweep = {
        r.label: r
        for r in run_sweep(
            tasks, RunOptions.resolve(options, jobs=jobs, cache=cache_dir)
        )
        if r is not None
    }

    result = ExperimentResult(
        exp_id="ext_resilience",
        title="Extension: backfilling resilience under fault injection",
    )
    data: dict = {}
    backfill_names = ("easy", "relaxed", "adaptive")
    for flevel, mtbf in FAILURE_LEVELS:
        rows = []
        data[flevel] = {}
        for rname, _attempts, _ckpt in RESILIENCE_POLICIES:
            data[flevel][rname] = {}
            for bname in backfill_names:
                cell = sweep.get(f"{flevel}/{rname}/{bname}")
                if cell is None:
                    # on_error="skip" left a hole; keep the rest of the grid
                    rows.append([rname, bname, "FAILED", "-", "-", "-", "-"])
                    continue
                rm = cell.resilience_metrics()
                rows.append(
                    [
                        rname,
                        bname,
                        f"{rm.goodput_core_hours:,.0f}",
                        f"{rm.wasted_core_hours:,.0f}",
                        f"{rm.effective_util:.3f}",
                        percent(rm.completed_fraction),
                        seconds(rm.mean_wait),
                    ]
                )
                data[flevel][rname][bname] = rm.as_dict()
        mtbf_label = "no node failures" if math.isinf(mtbf) else (
            f"per-node MTBF {mtbf / DAY:g} d, MTTR {mttr_hours:g} h"
        )
        result.add(
            render_table(
                [
                    "resilience",
                    "backfill",
                    "goodput (core-h)",
                    "wasted (core-h)",
                    "eff util",
                    "completed",
                    "avg wait",
                ],
                rows,
                title=f"{system} ({workload.n} jobs), failures: {flevel} "
                f"({mtbf_label}); intrinsic mix calibrated from trace",
            )
        )

    # headline: does adaptive's edge survive the harshest failure level?
    harsh = FAILURE_LEVELS[-1][0]
    best = data[harsh]["retry+ckpt"]
    if "adaptive" in best and "easy" in best:
        delta = (
            best["adaptive"]["goodput_core_hours"]
            - best["easy"]["goodput_core_hours"]
        )
        result.add(
            f"Under '{harsh}' failures with retry+checkpoint, adaptive-relaxed "
            f"backfilling changes goodput by {delta:+,.0f} core-h vs EASY "
            f"(waste {best['adaptive']['wasted_core_hours']:,.0f} vs "
            f"{best['easy']['wasted_core_hours']:,.0f} core-h)."
        )
    else:
        result.add(
            f"Headline comparison unavailable: cells for '{harsh}' failures "
            "with retry+checkpoint failed and were skipped."
        )
    result.data = data
    return result
