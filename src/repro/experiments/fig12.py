"""Fig 12 — job runtime prediction with vs without elapsed time."""

from __future__ import annotations

from ..predict.harness import compare_elapsed
from ..predict.models import MODEL_NAMES
from ..runner.options import RunOptions
from ..viz import percent, render_table
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult, get_traces

__all__ = ["run"]


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    systems: tuple[str, ...] = ("philly", "theta"),
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5),
    models: tuple[str, ...] = MODEL_NAMES,
    max_jobs: int = 12_000,
    jobs: int | None = None,
    options: RunOptions | None = None,
) -> ExperimentResult:
    """Reproduce Fig 12's two metric panels.

    The paper reports one DL and one HPC workload behave alike here; we run
    Philly and Theta by default (override ``systems`` for the full sweep).
    Every model fit of every system runs on one worker pool, set by
    ``options`` (a :class:`repro.runner.RunOptions`; ``jobs`` overrides
    its field; see :func:`repro.predict.harness.compare_elapsed`).  Under
    ``on_error="skip"`` a failed fit's cells render as ``FAILED``.
    """
    traces = get_traces(days, seed)
    result = ExperimentResult(
        exp_id="fig12",
        title="Runtime prediction with/without elapsed time",
    )
    comparisons = compare_elapsed(
        [traces[name] for name in systems],
        fractions=fractions,
        models=models,
        max_jobs=max_jobs,
        jobs=jobs,
        options=options,
    )

    data = {}
    for name, comparison in zip(systems, comparisons):
        for metric, better in (
            ("underestimate_rate", "smaller"),
            ("avg_accuracy", "higher"),
        ):
            rows = []
            for model in models:
                row = [model]
                for frac in fractions:
                    for arm in ("baseline", "elapsed"):
                        try:
                            cell = comparison.cell(model, frac, arm)
                        except KeyError:  # on_error="skip" left it out
                            row.append("FAILED")
                        else:
                            row.append(percent(getattr(cell, metric)))
                rows.append(row)
            headers = ["model"]
            for frac in fractions:
                headers += [f"base@{frac}", f"elapsed@{frac}"]
            result.add(
                render_table(
                    headers,
                    rows,
                    title=f"Fig 12 {name}: {metric} ({better} is better); "
                    "elapsed fractions are of mean runtime "
                    f"({comparison.mean_runtime:.0f}s)",
                )
            )
        data[name] = {
            f"{r.model}/{r.elapsed_fraction}/{r.arm}": {
                "under": r.underestimate_rate,
                "acc": r.avg_accuracy,
            }
            for r in comparison.results
        }
    result.data = data
    return result
