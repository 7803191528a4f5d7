"""Benchmark: regenerate Fig 1 job geometries (fig1)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig1(benchmark):
    """End-to-end regeneration of Fig 1 job geometries."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig1",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig1"
    assert result.render()
