"""Benchmark: regenerate Fig 2 core-hour domination (fig2)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig2(benchmark):
    """End-to-end regeneration of Fig 2 core-hour domination."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig2",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig2"
    assert result.render()
