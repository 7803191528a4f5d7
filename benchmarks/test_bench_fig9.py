"""Benchmark: regenerate Fig 9 size vs queue length (fig9)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig9(benchmark):
    """End-to-end regeneration of Fig 9 size vs queue length."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig9",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig9"
    assert result.render()
