"""Engine benchmarks at 100k jobs.

* ``test_bench_fast_100k`` times the EASY engine (:func:`simulate`) on
  the standard 100k-job diurnal workload (the perf-gate trajectory
  entry; the name predates the engine being the only one);
* ``test_bench_fast_conservative_100k`` times the conservative engine
  (:func:`simulate_conservative`) the same way; the name predates the
  engine being the only one;
* ``test_bench_fast_faults_100k`` times the fault engine
  (:func:`simulate_with_faults`) on the same workload under a calibrated
  fault configuration; the name predates the engine being the only one.

The workload generator thins a diurnal Poisson process, so the queue
stays deep (mean ~1000 on the 100k config) but *bounded* — wall clock
scales linearly in jobs rather than O(jobs x queue), which is what makes
the million-job configuration feasible at all.
"""

import numpy as np

from repro.sched import (
    EASY,
    FaultConfig,
    SimWorkload,
    simulate,
    simulate_conservative,
    simulate_with_faults,
)

#: the 100k perf-gate configuration
BENCH_JOBS = 100_000
BENCH_CAPACITY = 1024

#: calibrated 100k fault configuration: realistic node churn (MTBF ~70h
#: per node across 32 nodes), intrinsic faults, retries and hourly
#: checkpoints — ~8% of jobs need more than one attempt
BENCH_FAULTS = FaultConfig(
    node_mtbf=250_000.0,
    node_mttr=3600.0,
    n_nodes=32,
    fail_prob=0.05,
    kill_prob=0.02,
    max_attempts=3,
    checkpoint_interval=1800.0,
    seed=11,
)


def diurnal_workload(
    n: int,
    capacity: int,
    seed: int = 0,
    load: float = 1.02,
    swing: float = 0.6,
    core_cap: int = 0,
) -> SimWorkload:
    """``n`` jobs from a thinned diurnal Poisson process at ``load``.

    Arrivals follow a sinusoidal day/night rate (peak-to-mean ratio
    ``1 + swing``), so the simulated cluster oscillates between saturated
    and draining: the queue goes deep every peak but never grows without
    bound.  Job sizes cap at ``core_cap`` (default ``capacity // 8``) so
    backfilling has real holes to fill; the conservative bench lowers the
    cap so its reservation profile carries many small overlapping spans —
    the shape that stresses the profile rebuild.
    """
    rng = np.random.default_rng(seed)
    cores = rng.integers(1, (core_cap or capacity // 8) + 1, n)
    runtime = rng.exponential(600.0, n)
    walltime = runtime * rng.uniform(1.1, 3.0, n)
    mean_work = float((cores * runtime).mean())
    lam = capacity * load / mean_work
    lam_max = lam * (1 + swing)
    # oversample the max-rate process, then thin to the diurnal profile
    m = int(n * (1 + swing) * 1.25) + 64
    t = np.cumsum(rng.exponential(1.0 / lam_max, m))
    accept = rng.random(m) < (1 + swing * np.sin(2 * np.pi * t / 86400.0)) / (
        1 + swing
    )
    submit = t[accept][:n]
    assert len(submit) == n, "oversampling margin too small"
    return SimWorkload(
        submit=submit,
        cores=cores.astype(np.int64),
        runtime=runtime,
        walltime=walltime,
        user=rng.integers(0, 100, n).astype(np.int64),
    )


def test_bench_fast_100k(benchmark):
    """Perf-gate entry: the EASY engine on the 100k workload."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)
    result = benchmark.pedantic(
        simulate,
        args=(wl, BENCH_CAPACITY, "fcfs", EASY),
        rounds=3,
        iterations=1,
    )
    assert int((result.start >= 0).sum()) == BENCH_JOBS


def _conservative_workload() -> SimWorkload:
    """Steady subcritical arrivals (no diurnal swing) for the
    conservative bench: every queued job holds a reservation, so profile
    and queue sizes couple — the diurnal peaks that the EASY benches
    thrive on push the conservative engine superlinear.  A bounded
    queue of small jobs keeps the reservation profile dense (hundreds of
    overlapping spans) while wall clock stays linear in jobs."""
    return diurnal_workload(
        BENCH_JOBS, BENCH_CAPACITY, seed=1, load=0.9, swing=0.0, core_cap=8
    )


def test_bench_fast_conservative_100k(benchmark):
    """Perf-gate entry: the conservative engine on 100k jobs."""
    wl = _conservative_workload()
    result = benchmark.pedantic(
        simulate_conservative,
        args=(wl, BENCH_CAPACITY, "fcfs"),
        rounds=3,
        iterations=1,
    )
    assert int((result.start >= 0).sum()) == BENCH_JOBS


def test_bench_fast_faults_100k(benchmark):
    """Perf-gate entry: the fault engine on 100k jobs."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)
    result = benchmark.pedantic(
        simulate_with_faults,
        args=(wl, BENCH_CAPACITY, "fcfs", EASY, BENCH_FAULTS),
        rounds=3,
        iterations=1,
    )
    assert int((result.status >= 0).sum()) == BENCH_JOBS
