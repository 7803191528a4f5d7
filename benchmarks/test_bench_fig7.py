"""Benchmark: regenerate Fig 7 failure vs geometry (fig7)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig7(benchmark):
    """End-to-end regeneration of Fig 7 failure vs geometry."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig7",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig7"
    assert result.render()
