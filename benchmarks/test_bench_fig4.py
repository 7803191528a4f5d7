"""Benchmark: regenerate Fig 4 wait/turnaround CDFs (fig4)."""

from repro.experiments import run_experiment

from conftest import BENCH_DAYS, BENCH_SEED, fresh_analyses


def test_bench_fig4(benchmark):
    """End-to-end regeneration of Fig 4 wait/turnaround CDFs."""
    result = benchmark.pedantic(
        run_experiment,
        args=("fig4",),
        kwargs=dict(days=BENCH_DAYS, seed=BENCH_SEED),
        setup=fresh_analyses,
        rounds=5,
    )
    assert result.exp_id == "fig4"
    assert result.render()
