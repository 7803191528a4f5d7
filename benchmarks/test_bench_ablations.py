"""Ablation benchmarks for the design choices DESIGN.md calls out.

* relax-factor sweep — how the relax base trades waits for violations;
* adaptive vs fixed at several factors — the paper's Eq. (1) ablation;
* Poisson-vs-diurnal arrivals — does the diurnal model change Table II?
* queue-policy sweep under EASY backfilling.

Each bench runs its full sweep per round and asserts the expected ordering,
so regressions in *results* fail loudly, not just regressions in speed.
"""

import numpy as np
import pytest

from repro.sched import (
    EASY,
    adaptive_relaxed,
    compute_metrics,
    relaxed,
    simulate,
    workload_from_trace,
)
from repro.traces.synth import generate_trace, get_calibration
from repro.traces.synth.calibration import SystemCalibration
from repro.traces.synth.diurnal import flat_profile
import dataclasses


@pytest.fixture(scope="module")
def theta_workload():
    trace = generate_trace("theta", days=5, seed=2)
    return workload_from_trace(trace), trace.system.schedulable_units


def test_bench_relax_factor_sweep(benchmark, theta_workload):
    """Sweep the relax base; more relaxation must not slow the queue down."""
    workload, capacity = theta_workload

    def sweep():
        return {
            base: compute_metrics(
                simulate(workload, capacity, "fcfs", relaxed(base))
            )
            for base in (0.0, 0.1, 0.3)
        }

    metrics = benchmark.pedantic(sweep, rounds=2, iterations=1)
    # relaxation monotonically enables more backfilling on this workload
    assert metrics[0.3].wait <= metrics[0.0].wait * 1.05


def test_bench_adaptive_vs_fixed(benchmark, theta_workload):
    """Adaptive relaxing must cut reservation violations vs fixed."""
    workload, capacity = theta_workload

    def compare():
        fixed = compute_metrics(
            simulate(workload, capacity, "fcfs", relaxed(0.1))
        )
        adaptive = compute_metrics(
            simulate(workload, capacity, "fcfs", adaptive_relaxed(0.1))
        )
        return fixed, adaptive

    fixed, adaptive = benchmark.pedantic(compare, rounds=2, iterations=1)
    if fixed.violation > 0:
        assert adaptive.violation <= fixed.violation


def test_bench_poisson_vs_diurnal_arrivals(benchmark):
    """Ablate the diurnal profile: flat arrivals should not change the
    scheduling metrics' order of magnitude (robustness check)."""
    cal = get_calibration("theta")
    flat_cal = dataclasses.replace(cal, diurnal=flat_profile())

    def run_pair():
        out = {}
        for name, c in (("diurnal", cal), ("flat", flat_cal)):
            trace = generate_trace(c, days=4, seed=5)
            workload = workload_from_trace(trace)
            out[name] = compute_metrics(
                simulate(workload, c.system.schedulable_units, "fcfs", EASY)
            )
        return out

    metrics = benchmark.pedantic(run_pair, rounds=2, iterations=1)
    assert 0.1 < metrics["flat"].util <= 1.0
    assert 0.1 < metrics["diurnal"].util <= 1.0


def test_bench_policy_sweep(benchmark, theta_workload):
    """All queue policies under EASY backfilling; SJF must beat LJF on bsld."""
    workload, capacity = theta_workload

    def sweep():
        return {
            policy: compute_metrics(
                simulate(workload, capacity, policy, EASY)
            )
            for policy in ("fcfs", "sjf", "ljf", "wfp3", "f1")
        }

    metrics = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert metrics["sjf"].bsld <= metrics["ljf"].bsld


def test_bench_generator_throughput(benchmark, record_property):
    """Raw trace-generation speed for the largest system (Helios).

    The test's duration mostly follows pytest-benchmark's round budget, so
    the ledger row also records the median and minimum of one generation.
    """
    trace = benchmark(generate_trace, "helios", days=2.0, seed=9)
    assert trace.num_jobs > 5000
    stats = benchmark.stats.stats
    record_property("median_s", round(stats.median, 5))
    record_property("min_s", round(stats.min, 5))
    record_property("rounds", stats.rounds)


def test_bench_queue_length_kernel(benchmark):
    """The vectorized queue-length sweep on a 100k-job stream."""
    from repro.traces.synth import queue_length_at_submit

    rng = np.random.default_rng(0)
    submit = np.sort(rng.uniform(0, 1e6, 100_000))
    wait = rng.exponential(300, 100_000)
    q = benchmark(queue_length_at_submit, submit, wait)
    assert q.max() >= 1
