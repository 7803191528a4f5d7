"""Overhead guarantee of the observability layer.

``_baseline_simulate`` is a frozen copy of the EASY engine's hot loop from
*before* observability was wired in (fcfs-only, no fair-share bookkeeping —
exactly the code path the instrumented engine takes for these inputs).
The instrumented engine with **no sinks attached** must stay within a fixed
wall-time ratio of that baseline — the disabled path costs only a handful
of ``None`` checks — and must of course produce an identical schedule.

Active tracing gets a deliberately loose sanity bound: capturing the full
decision log may cost real time, it just must not be catastrophic.
"""

import heapq
import json
import time

import numpy as np

from repro.obs import Metrics, NullProgress, PerfConfig, Profiler, RingBufferTracer
from repro.runner import SimTask, WorkloadSpec, run_sweep
from repro.sched import EASY, simulate, workload_from_trace
from repro.sched.policies import get_policy
from repro.traces.synth import generate_trace

#: disabled observability must stay within this factor of the baseline
NOOP_RATIO_LIMIT = 1.6
#: full ring-buffer tracing + metrics + profiling: loose sanity bound only
ACTIVE_RATIO_LIMIT = 10.0
#: fast engine with columnar recording attached vs uninstrumented
FAST_COLUMNAR_RATIO_LIMIT = 1.10
#: a sweep with the no-op progress reporter attached vs no reporter at all
SWEEP_NOOP_RATIO_LIMIT = 1.05
#: full performance tracing (span trees shipped to the parent) vs bare sweep
PERF_TRACE_RATIO_LIMIT = 1.05


class _BaselinePool:
    """The flat core pool the pre-observability engine allocated from:
    a free count plus a running table whose expected-end order is
    rebuilt lazily for the reservation walk (frozen with the baseline)."""

    __slots__ = ("free", "_running", "_sorted_cache")

    def __init__(self, capacity):
        self.free = int(capacity)
        self._running = {}  # job -> (expected end, cores)
        self._sorted_cache = None

    def can_start(self, cores):
        return cores <= self.free

    def start(self, job, cores, expected_end):
        self.free -= cores
        self._running[job] = (expected_end, cores)
        self._sorted_cache = None

    def finish(self, job):
        _end, cores = self._running.pop(job)
        self.free += cores
        self._sorted_cache = None

    def reservation(self, cores, now):
        if cores <= self.free:
            return now, self.free - cores
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._running.values())
        free = self.free
        for end, c in self._sorted_cache:
            free += c
            if free >= cores:
                return max(end, now), free - cores
        raise RuntimeError(f"reservation impossible: {cores} cores")


def _baseline_simulate(workload, capacity, backfill=EASY):
    """Pre-observability EASY engine (fcfs), kept for overhead comparison."""
    policy = get_policy("fcfs")
    n = workload.n
    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime
    runtime = workload.runtime

    cluster = _BaselinePool(capacity)
    start = np.full(n, -1.0)
    promised = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)

    pending = []
    finish_heap = []
    next_submit = 0
    observed_max_q = 0
    INF = float("inf")

    def start_job(j, now):
        cluster.start(j, int(cores[j]), now + walltime[j])
        start[j] = now
        heapq.heappush(finish_heap, (now + runtime[j], j))

    def schedule(now):
        nonlocal observed_max_q
        observed_max_q = max(observed_max_q, len(pending))
        while pending:
            arr = np.asarray(pending)
            order = policy.order(submit[arr], cores[arr], walltime[arr], now)
            ranked = arr[order]
            head = int(ranked[0])
            if cluster.can_start(int(cores[head])):
                start_job(head, now)
                pending.remove(head)
                continue
            shadow, extra = cluster.reservation(int(cores[head]), now)
            if np.isnan(promised[head]):
                promised[head] = shadow
            if backfill.enabled:
                frac = backfill.relax_fraction(len(pending), observed_max_q)
                limit = shadow + frac * max(shadow - submit[head], 0.0)
                started = []
                for j in ranked[1:]:
                    j = int(j)
                    c = int(cores[j])
                    if c > cluster.free:
                        continue
                    fits_window = now + walltime[j] <= limit
                    fits_extra = c <= extra
                    if fits_window or fits_extra:
                        start_job(j, now)
                        backfilled[j] = True
                        started.append(j)
                        if not fits_window:
                            extra -= c
                        if cluster.free == 0:
                            break
                for j in started:
                    pending.remove(j)
            break

    while next_submit < n or finish_heap:
        t_sub = submit[next_submit] if next_submit < n else INF
        t_fin = finish_heap[0][0] if finish_heap else INF
        now = min(t_sub, t_fin)
        while finish_heap and finish_heap[0][0] <= now:
            _, j = heapq.heappop(finish_heap)
            cluster.finish(j)
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            next_submit += 1
        schedule(now)

    return start, promised, backfilled


def _best_of(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _bench_workload():
    trace = generate_trace("theta", days=4, seed=5)
    return workload_from_trace(trace), trace.system.schedulable_units


def test_bench_noop_observability_overhead():
    """simulate() with no sinks stays within NOOP_RATIO_LIMIT of baseline."""
    workload, capacity = _bench_workload()

    t_base, (b_start, b_promised, b_backfilled) = _best_of(
        lambda: _baseline_simulate(workload, capacity)
    )
    t_noop, res = _best_of(lambda: simulate(workload, capacity, "fcfs", EASY))

    # same schedule, bit for bit — instrumentation observes, never decides
    assert np.array_equal(res.start, b_start)
    assert np.array_equal(res.promised, b_promised, equal_nan=True)
    assert np.array_equal(res.backfilled, b_backfilled)

    ratio = t_noop / t_base
    assert ratio <= NOOP_RATIO_LIMIT, (
        f"disabled observability costs {ratio:.2f}x the baseline "
        f"({t_noop * 1e3:.1f} ms vs {t_base * 1e3:.1f} ms)"
    )


def test_bench_active_observability_sanity():
    """Full tracing + metrics + profiling stays within a loose bound."""
    workload, capacity = _bench_workload()

    t_base, (b_start, _, _) = _best_of(
        lambda: _baseline_simulate(workload, capacity), repeats=3
    )
    t_obs, res = _best_of(
        lambda: simulate(
            workload,
            capacity,
            "fcfs",
            EASY,
            tracer=RingBufferTracer(),
            metrics=Metrics(sample_interval=600.0),
            profiler=Profiler(),
        ),
        repeats=3,
    )

    assert np.array_equal(res.start, b_start)
    ratio = t_obs / t_base
    assert ratio <= ACTIVE_RATIO_LIMIT, (
        f"active observability costs {ratio:.2f}x the baseline"
    )


def test_bench_fast_columnar_overhead(record_property):
    """Columnar recording costs the fast engine < 10% at 100k jobs.

    The recording hot path is one tuple + one ``list.append`` per event
    with a batched column flush per outer iteration — cheap enough that
    ``--trace-out`` on the fast engine is a flag you can always afford.
    Same paired-round min-of-ratios scoring as the sweep benches below:
    systematic overhead shows in every round, noise needs only one quiet
    round to be absolved.  The recorded run must also stay bit-identical
    and capture the full decision log (>= one submit/start/finish per
    job).
    """
    from test_bench_fast_engine import (
        BENCH_CAPACITY,
        BENCH_JOBS,
        diurnal_workload,
    )

    from repro.obs import ColumnarRecorder
    from repro.sched import simulate_fast

    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)
    recorders = []

    def recorded():
        rec = ColumnarRecorder()
        res = simulate_fast(wl, BENCH_CAPACITY, "fcfs", EASY, tracer=rec)
        recorders.append(rec)
        return res

    arms = [
        lambda: simulate_fast(wl, BENCH_CAPACITY, "fcfs", EASY),
        recorded,
    ]
    ratio = float("inf")
    plain = traced = None
    for round_no in range(12):
        order = (0, 1) if round_no % 2 == 0 else (1, 0)
        times = [0.0, 0.0]
        results = [None, None]
        for arm in order:
            times[arm], results[arm] = _best_of(arms[arm], repeats=1)
        if times[1] / times[0] < ratio:
            ratio = times[1] / times[0]
            plain, traced = results
        if round_no >= 2 and ratio <= FAST_COLUMNAR_RATIO_LIMIT:
            break
    record_property("columnar_overhead_ratio", round(ratio, 4))

    # recording observes, never decides: schedules are bit-identical
    assert np.array_equal(traced.start, plain.start)
    assert np.array_equal(traced.promised, plain.promised, equal_nan=True)
    assert np.array_equal(traced.backfilled, plain.backfilled)

    # and the log is actually complete: 3 hot events per job plus headers
    assert recorders[-1].count >= 3 * BENCH_JOBS + 2

    assert ratio <= FAST_COLUMNAR_RATIO_LIMIT, (
        f"columnar recording costs {ratio:.3f}x the uninstrumented fast "
        f"engine in the best of 12 paired rounds"
    )


def test_bench_sweep_noop_reporter_overhead():
    """run_sweep with the default no-op reporter stays within 5%.

    ``NullProgress.enabled`` is False, so the sweep skips run-record
    construction entirely — the observed path differs from the unobserved
    one by a few attribute checks per cell.  Serial execution keeps pool
    scheduling noise out of the comparison.
    """
    wl = WorkloadSpec(system="theta", days=4.0, seed=5, max_jobs=None)
    tasks = [
        SimTask(label=f"{policy}", workload=wl, policy=policy)
        for policy in ("fcfs", "sjf", "wfp3", "f1")
    ]
    # warm the per-process trace cache so neither arm pays generation cost
    run_sweep(tasks[:1])

    # pair the arms within each round (alternating order) and score the
    # round's noop/plain ratio, so clock drift and scheduler noise hit
    # both sides of every ratio equally; the best round wins.  A genuine
    # overhead shows up in *every* round, so min-of-ratios can't hide it,
    # while one quiet round is enough to absolve noise.
    arms = [
        lambda: run_sweep(tasks),
        lambda: run_sweep(tasks, progress=NullProgress()),
    ]
    ratio = float("inf")
    plain = observed = None
    for round_no in range(12):
        order = (0, 1) if round_no % 2 == 0 else (1, 0)
        times = [0.0, 0.0]
        results = [None, None]
        for arm in order:
            times[arm], results[arm] = _best_of(arms[arm], repeats=1)
        if times[1] / times[0] < ratio:
            ratio = times[1] / times[0]
            plain, observed = results
        if round_no >= 2 and ratio <= SWEEP_NOOP_RATIO_LIMIT:
            break

    # identical results, bit for bit — reporting observes, never decides
    assert [r.payload() for r in observed] == [r.payload() for r in plain]

    assert ratio <= SWEEP_NOOP_RATIO_LIMIT, (
        f"no-op progress reporter costs {ratio:.3f}x the bare sweep in the "
        f"best of 12 paired rounds"
    )


def test_bench_perf_trace_overhead():
    """Full span tracing stays within 5% of a bare sweep, bit-identically.

    The tracing-on arm runs every cell under a span Profiler (the engines'
    per-round spans all fire) and ships the span trees to the parent trace
    — the whole PR 7 pipeline minus file output.  The engine's numpy-heavy
    scheduling rounds amortize the per-span cost, which is what keeps the
    hot loop instrumentable at all.  Same paired-round min-of-ratios
    scoring as the no-op reporter bench above: systematic overhead shows
    in every round, noise needs only one quiet round to be absolved.
    """
    wl = WorkloadSpec(system="theta", days=4.0, seed=5, max_jobs=None)
    tasks = [
        SimTask(label=f"{policy}", workload=wl, policy=policy)
        for policy in ("fcfs", "sjf", "wfp3", "f1")
    ]
    run_sweep(tasks[:1])  # warm the per-process trace cache

    arms = [
        lambda: run_sweep(tasks),
        lambda: run_sweep(tasks, perf=PerfConfig()),
    ]
    ratio = float("inf")
    plain = traced = None
    for round_no in range(12):
        order = (0, 1) if round_no % 2 == 0 else (1, 0)
        times = [0.0, 0.0]
        results = [None, None]
        for arm in order:
            times[arm], results[arm] = _best_of(arms[arm], repeats=1)
        if times[1] / times[0] < ratio:
            ratio = times[1] / times[0]
            plain, traced = results
        if round_no >= 2 and ratio <= PERF_TRACE_RATIO_LIMIT:
            break

    # the guarantee that makes tracing safe to leave on: zero bytes of
    # difference between instrumented and uninstrumented results
    assert json.dumps([r.payload() for r in traced]) == json.dumps(
        [r.payload() for r in plain]
    )

    assert ratio <= PERF_TRACE_RATIO_LIMIT, (
        f"perf tracing costs {ratio:.3f}x the bare sweep in the best of "
        f"12 paired rounds"
    )
