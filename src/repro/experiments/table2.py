"""Table II — scheduling performance with adaptive relaxed backfilling.

Mirrors :func:`repro.core.adaptive.run_use_case2` cell for cell, but runs
the per-system simulations through :func:`repro.runner.run_sweep` so the
three systems' relaxed runs (and then their adaptive runs) execute in
parallel and memoize into the on-disk result cache.  The adaptive run's
Eq. (1) denominator is the relaxed run's maximum observed queue length,
exactly as in the serial use case — hence the two-phase sweep.
"""

from __future__ import annotations

from pathlib import Path

from ..core.adaptive import improvement_pct
from ..runner import ResultCache, RunOptions, SimTask, WorkloadSpec, run_sweep
from ..sched import adaptive_relaxed, relaxed
from ..viz import render_table
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult

__all__ = ["run"]

#: systems simulated (the DL traces carry no walltimes, as in the paper)
SYSTEMS = ("blue_waters", "mira", "theta")


def _improvements(rel: dict, ada: dict) -> dict[str, float]:
    """Improvement percentages for the four Table II metrics."""
    return {
        "wait": improvement_pct(rel["wait"], ada["wait"]),
        "bsld": improvement_pct(rel["bsld"], ada["bsld"]),
        "util": improvement_pct(rel["util"], ada["util"], smaller_is_better=False),
        "violation": improvement_pct(rel["violation"], ada["violation"]),
    }


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    relax_base: float = 0.1,
    max_jobs: int | None = 40_000,
    jobs: int | None = None,
    cache_dir: str | Path | ResultCache | None = None,
    options: RunOptions | None = None,
) -> ExperimentResult:
    """Reproduce Table II: relaxed vs adaptive-relaxed backfilling.

    ``options`` (a :class:`repro.runner.RunOptions`; ``jobs`` /
    ``cache_dir`` override its fields) runs both
    :func:`repro.runner.run_sweep` phases (docs/PARALLELISM.md).  A system
    whose relaxed run fails under ``on_error="skip"`` is dropped from the
    adaptive phase (its denominator is unknown) and rendered as a
    ``FAILED`` row.  A ``perf`` config is shared by both phases, so the
    two sweeps accumulate into one trace (docs/OBSERVABILITY.md).
    """
    options = RunOptions.resolve(options, jobs=jobs, cache=cache_dir)
    specs = {
        name: WorkloadSpec(system=name, days=days, seed=seed, max_jobs=max_jobs)
        for name in SYSTEMS
    }
    # phase 1: fixed-factor relaxed runs, tracking the queue so each
    # system's maximum observed length can seed the adaptive denominator
    relaxed_results = {
        r.label: r
        for r in run_sweep(
            [
                SimTask(
                    label=name,
                    workload=specs[name],
                    backfill=relaxed(relax_base),
                    track_queue=True,
                )
                for name in SYSTEMS
            ],
            options,
        )
        if r is not None
    }
    # phase 2: adaptive runs with the known per-system maxima; systems
    # with no relaxed result have no Eq. (1) denominator and are skipped
    phase2 = [name for name in SYSTEMS if name in relaxed_results]
    adaptive_results = {
        r.label: r
        for r in run_sweep(
            [
                SimTask(
                    label=name,
                    workload=specs[name],
                    backfill=adaptive_relaxed(
                        relax_base,
                        max_queue_len=relaxed_results[name].max_queue or None,
                    ),
                )
                for name in phase2
            ],
            options,
        )
        if r is not None
    }

    result = ExperimentResult(
        exp_id="table2",
        title="Job scheduling performance with adaptive relaxing",
    )

    rows = []
    data = {}
    for name in SYSTEMS:
        if name not in relaxed_results or name not in adaptive_results:
            rows.append([name, "FAILED", "-", "-", "-"])
            continue
        rel = relaxed_results[name].metrics
        ada = adaptive_results[name].metrics
        imps = _improvements(rel, ada)
        for metric in ("wait", "bsld", "util", "violation"):
            imp = imps[metric]
            imp_str = "<1%" if abs(imp) < 1 else f"{imp:+.0f}%"
            rows.append(
                [name, metric, f"{rel[metric]:.2f}", f"{ada[metric]:.2f}", imp_str]
            )
        data[name] = {"relaxed": rel, "adaptive": ada, "improvements": imps}

    result.add(
        render_table(
            ["trace", "metric", "Relaxed", "Adaptive", "Improved"],
            rows,
            title="Table II (paper: violation cut 5%/49%/13% on BW/Mira/Theta "
            "with <~6% movement in wait/bsld/util)",
        )
    )
    result.data = data
    return result
