"""Benchmark: regenerate Fig 12 (runtime prediction with elapsed time).

Reduced scale: one system and one elapsed fraction, with all five of the
paper's models, so that the ledger times every model's fit.
"""

from repro.experiments import run_experiment
from repro.predict import MODEL_NAMES

from conftest import BENCH_DAYS, BENCH_SEED


def test_bench_fig12(benchmark):
    """End-to-end regeneration of the Fig 12 comparison (reduced grid)."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig12",),
        kwargs=dict(
            days=BENCH_DAYS,
            seed=BENCH_SEED,
            systems=("theta",),
            fractions=(0.25,),
            models=MODEL_NAMES,
            max_jobs=2000,
        ),
        rounds=3,
        iterations=1,
    )
    assert result.exp_id == "fig12"
    cells = result.data["theta"]
    # the headline shape: elapsed arm underestimates less for the learned models
    assert cells["lr/0.25/elapsed"]["under"] <= cells["lr/0.25/baseline"]["under"]
