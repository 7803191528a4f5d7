"""Benchmark: regenerate Fig 6 status distribution (fig6)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig6(benchmark):
    """End-to-end regeneration of Fig 6 status distribution."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig6",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig6"
    assert result.render()
