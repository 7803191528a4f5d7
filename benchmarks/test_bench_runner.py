"""Benchmarks for the parallel sweep runner (docs/PARALLELISM.md).

Three claims from the runner's contract are measured on the exact
``ext_resilience`` task grid (reduced job count, bench trace window):

* fanning the sweep over 4 workers is at least ~2x faster than serial
  (asserted only on machines with >= 4 CPUs — elsewhere the comparison
  is meaningless and the test skips);
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


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup assertion needs >= 4 CPUs",
)
def test_parallel_speedup_and_identity():
    """>=2x at 4 workers, with payloads bit-identical to serial."""
    tasks = _tasks()

    t0 = time.perf_counter()
    serial = run_sweep(tasks, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanned = run_sweep(tasks, jobs=4)
    fanned_s = time.perf_counter() - t0

    assert [r.payload() for r in fanned] == [r.payload() for r in serial]
    speedup = serial_s / fanned_s
    assert speedup >= 2.0, (
        f"expected >=2x at 4 workers, got {speedup:.2f}x "
        f"(serial {serial_s:.2f}s, parallel {fanned_s:.2f}s)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="overhead comparison needs >= 4 CPUs",
)
def test_watchdog_overhead_bounded():
    """A per-cell deadline must stay within ~3x of a sweep without one.

    Both calls run on the same supervised pool of persistent workers, so
    the ratio measures only the deadline bookkeeping (the parent wakes
    for the nearest deadline) — a constant cost that must never turn into
    an asymptotic slowdown.  Payloads stay bit-identical either way.
    """
    tasks = _tasks()
    run_sweep(tasks[:2], jobs=2)  # warm the per-process trace cache

    t0 = time.perf_counter()
    plain = run_sweep(tasks, jobs=4)
    plain_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    hardened = run_sweep(tasks, jobs=4, timeout=600.0, on_error="skip")
    hardened_s = time.perf_counter() - t0

    assert [r.payload() for r in hardened] == [r.payload() for r in plain]
    overhead = hardened_s / plain_s
    assert overhead < 3.0, (
        f"watchdog path {overhead:.2f}x over plain pool "
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
