"""Benchmarks for the supporting substrates: generators, fitting, engines."""

import numpy as np

from repro.sched import simulate_conservative, simulate_packed, workload_from_trace
from repro.traces.synth import (
    fit_calibration,
    fit_lognormal_mixture,
    generate_trace,
)


def test_bench_mixture_em(benchmark):
    """EM fit of a 3-component lognormal mixture on 30k runtimes."""
    rng = np.random.default_rng(0)
    values = np.concatenate(
        [
            rng.lognormal(np.log(60), 0.6, 10_000),
            rng.lognormal(np.log(3600), 0.8, 10_000),
            rng.lognormal(np.log(50_000), 0.6, 10_000),
        ]
    )
    fit = benchmark(fit_lognormal_mixture, values, 3)
    assert fit.n_iter >= 1


def test_bench_fit_calibration(benchmark):
    """Full calibration fit from an 8-day Theta trace."""
    trace = generate_trace("theta", days=8, seed=4)
    cal = benchmark(fit_calibration, trace)
    assert cal.jobs_per_day > 0


def test_bench_conservative_engine(benchmark):
    """Conservative backfilling over a 3-day Theta workload."""
    trace = generate_trace("theta", days=3, seed=2)
    workload = workload_from_trace(trace)

    result = benchmark.pedantic(
        simulate_conservative,
        args=(workload, trace.system.schedulable_units),
        rounds=2,
        iterations=1,
    )
    assert np.all(result.start >= workload.submit)


def test_bench_packed_engine(benchmark):
    """Node-packing simulation of 4k Philly jobs."""
    trace = generate_trace("philly", days=4, seed=3)
    workload = workload_from_trace(trace).slice(4000)

    result = benchmark.pedantic(
        simulate_packed,
        args=(workload, trace.system.gpus // 8, 8),
        rounds=2,
        iterations=1,
    )
    assert np.all(result.start >= workload.submit)
