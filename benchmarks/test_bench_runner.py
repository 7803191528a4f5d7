"""Benchmarks for the parallel sweep runner (docs/PARALLELISM.md).

Three claims from the runner's contract are measured on the exact
``ext_resilience`` task grid (reduced job count, bench trace window):

* fanning the sweep over 2 or 4 workers is faster than serial, by at
  least ``MIN_SPEEDUP[workers]`` (each case runs only on a machine with
  at least that many CPUs — with fewer the comparison is meaningless and
  it skips);
* a warm on-disk cache serves the whole sweep at near-zero cost compared
  to recomputing it;
* parallel and serial sweeps return bit-identical payloads, so the
  speedup is free of result drift;
* a per-cell deadline and ``on_error="skip"`` cost at most a modest
  constant factor over a sweep without them — both run on the same
  supervised pool, so the ratio measures only the deadline bookkeeping;
* a journal replay serves the whole sweep at near-zero cost, mirroring
  the warm-cache claim for the resume path.
"""

import os
import time

import pytest

from repro.experiments.ext_resilience import build_sweep
from repro.runner import ResultCache, run_sweep

from conftest import BENCH_DAYS, BENCH_SEED

#: reduced per-cell job count: 27 fault-injected cells stay in seconds
BENCH_MAX_JOBS = 1200

#: least speedup over serial asserted per worker count.  The 2-worker bar
#: sits below the range measured on a 2-core VM, where the parent process
#: shares the cores with both workers (docs/PARALLELISM.md, "Benchmarks").
MIN_SPEEDUP = {2: 1.5, 4: 2.0}
#: interleaved serial/parallel runs per speedup measurement
SPEEDUP_ROUNDS = 3

#: worker counts of the pool benches; each skips below its CPU count
POOL_WORKERS = pytest.mark.parametrize(
    "workers",
    [
        pytest.param(
            n,
            marks=pytest.mark.skipif(
                (os.cpu_count() or 1) < n, reason=f"needs >= {n} CPUs"
            ),
        )
        for n in sorted(MIN_SPEEDUP)
    ],
)


def _tasks():
    return build_sweep(days=BENCH_DAYS, seed=BENCH_SEED, max_jobs=BENCH_MAX_JOBS)


def test_bench_sweep_serial(benchmark):
    """Baseline: the ext_resilience grid computed serially, no cache."""
    results = benchmark.pedantic(
        run_sweep, args=(_tasks(),), kwargs=dict(jobs=1), rounds=1, iterations=1
    )
    assert len(results) == 27
    assert not any(r.cached for r in results)


def test_bench_warm_cache(benchmark, tmp_path):
    """A warm cache must serve the whole sweep without simulating."""
    cache_dir = tmp_path / "cache"
    t0 = time.perf_counter()
    run_sweep(_tasks(), jobs=1, cache=cache_dir)  # cold fill
    cold = time.perf_counter() - t0

    cache = ResultCache(cache_dir)
    results = benchmark.pedantic(
        run_sweep,
        args=(_tasks(),),
        kwargs=dict(jobs=1, cache=cache),
        rounds=3,
        iterations=1,
    )
    assert all(r.cached for r in results), "warm run recomputed cells"
    warm = benchmark.stats.stats.mean
    assert warm < cold / 5, (
        f"warm cache not near-zero-cost: cold={cold:.2f}s warm={warm:.2f}s"
    )


@POOL_WORKERS
def test_parallel_speedup_and_identity(workers, record_property):
    """At least ``MIN_SPEEDUP[workers]``, payloads bit-identical to serial.

    Each side is timed as the best of ``SPEEDUP_ROUNDS`` interleaved runs,
    so one run slowed by another process on a small machine does not
    decide the ratio.
    """
    tasks = _tasks()
    run_sweep(tasks[:2], jobs=workers)  # warm the per-process trace cache

    serial_s = fanned_s = float("inf")
    for _ in range(SPEEDUP_ROUNDS):
        t0 = time.perf_counter()
        serial = run_sweep(tasks, jobs=1)
        serial_s = min(serial_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        fanned = run_sweep(tasks, jobs=workers)
        fanned_s = min(fanned_s, time.perf_counter() - t0)

    assert [r.payload() for r in fanned] == [r.payload() for r in serial]
    speedup = serial_s / fanned_s
    record_property("speedup", round(speedup, 3))
    assert speedup >= MIN_SPEEDUP[workers], (
        f"expected >={MIN_SPEEDUP[workers]}x at {workers} workers, "
        f"got {speedup:.2f}x "
        f"(serial {serial_s:.2f}s, parallel {fanned_s:.2f}s)"
    )


@POOL_WORKERS
def test_watchdog_overhead_bounded(workers, record_property):
    """A per-cell deadline must stay within ~3x of a sweep without one.

    Both calls run on the same supervised pool of persistent workers, so
    the ratio measures only the deadline bookkeeping (the parent wakes
    for the nearest deadline) — a constant cost that must never turn into
    an asymptotic slowdown.  Payloads stay bit-identical either way.
    """
    tasks = _tasks()
    run_sweep(tasks[:2], jobs=2)  # warm the per-process trace cache

    t0 = time.perf_counter()
    plain = run_sweep(tasks, jobs=workers)
    plain_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    hardened = run_sweep(tasks, jobs=workers, timeout=600.0, on_error="skip")
    hardened_s = time.perf_counter() - t0

    assert [r.payload() for r in hardened] == [r.payload() for r in plain]
    overhead = hardened_s / plain_s
    record_property("overhead", round(overhead, 3))
    assert overhead < 3.0, (
        f"deadline + skip sweep {overhead:.2f}x over one without "
        f"at {workers} workers "
        f"(plain {plain_s:.2f}s, hardened {hardened_s:.2f}s)"
    )


def test_bench_journal_replay(benchmark, tmp_path):
    """A populated journal must replay the sweep without simulating."""
    journal = tmp_path / "journal.jsonl"
    t0 = time.perf_counter()
    run_sweep(_tasks(), jobs=1, journal=journal)  # interrupted-run stand-in
    cold = time.perf_counter() - t0

    results = benchmark.pedantic(
        run_sweep,
        args=(_tasks(),),
        kwargs=dict(jobs=1, journal=journal),
        rounds=3,
        iterations=1,
    )
    assert all(r.cached for r in results), "journal replay recomputed cells"
    replay = benchmark.stats.stats.mean
    assert replay < cold / 5, (
        f"journal replay not near-zero-cost: cold={cold:.2f}s "
        f"replay={replay:.2f}s"
    )
