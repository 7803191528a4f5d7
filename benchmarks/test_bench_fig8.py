"""Benchmark: regenerate Fig 8 per-user config repetition (fig8)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig8(benchmark):
    """End-to-end regeneration of Fig 8 per-user config repetition."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig8",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig8"
    assert result.render()
