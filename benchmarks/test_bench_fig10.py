"""Benchmark: regenerate Fig 10 runtime vs queue length (fig10)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig10(benchmark):
    """End-to-end regeneration of Fig 10 runtime vs queue length."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig10",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig10"
    assert result.render()
