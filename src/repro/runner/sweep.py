"""Parallel experiment executor with deterministic, cacheable results.

A *sweep* is a list of independent simulation cells (:class:`SimTask`), each
fully described by pure data: a workload source, a capacity, a policy name,
a backfill configuration and an optional fault configuration.  Because every
cell is self-contained and the simulator is deterministic in its inputs,
:func:`run_sweep` can fan cells out over worker processes and still
guarantee **bit-identical results at any worker count** — parallelism only
reorders wall-clock execution, never the inputs.

Two workload sources are supported:

* :class:`WorkloadSpec` — a synthetic-generation recipe (system, days,
  seed, job cap).  Workers rematerialize the trace through the shared
  process-wide cache (:func:`repro.traces.synth.cached_traces`), which
  :func:`run_sweep` warms in the parent so fork-started workers inherit it.
* an inline :class:`~repro.sched.job.SimWorkload` — concrete job arrays
  (e.g. parsed from an SWF file), shipped to workers by pickling.

Results are summaries (metric dicts), not raw per-job arrays — small enough
to cache on disk (:class:`~repro.runner.cache.ResultCache`) and to compare
exactly across worker counts.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..sched import (
    EASY,
    BackfillConfig,
    FaultConfig,
    ResilienceMetrics,
    ScheduleMetrics,
    compute_metrics,
    compute_resilience_metrics,
    simulate,
    workload_from_trace,
)
from ..sched.job import SimWorkload
from .cache import ResultCache, code_version, hash_u64, stable_hash
from .journal import SweepJournal
from .options import RunOptions
from .watchdog import FailureReport, SweepError, _mp_context, run_watchdog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import at runtime
    from ..obs.perf import PerfConfig
    from ..obs.runs import ProgressReporter, RunRegistry

__all__ = [
    "WorkloadSpec",
    "SimTask",
    "TaskResult",
    "SweepStats",
    "run_sweep",
    "derive_seed",
    "workload_fingerprint",
]


def derive_seed(base: int, *parts) -> int:
    """Stable per-task seed derived from ``base`` and arbitrary labels.

    Hash-based, so the seed of one cell never depends on how many other
    cells exist or in which order they run — the property that keeps
    parallel sweeps bit-identical to serial ones when each cell carries
    its own RNG.
    """
    return hash_u64(base, *parts) >> 1  # 63-bit non-negative


def workload_fingerprint(workload: SimWorkload) -> str:
    """SHA-256 over the concrete job arrays of an inline workload."""
    h = hashlib.sha256()
    for name in ("submit", "cores", "runtime", "walltime", "user", "status"):
        arr = np.ascontiguousarray(getattr(workload, name))
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for a synthetic workload (matches the experiment harness).

    ``seed`` is the experiment-level base seed: materialization goes
    through :func:`repro.traces.synth.cached_traces`, which derives the
    same per-system seeds as :func:`repro.experiments.common.get_traces`
    — a sweep cell therefore simulates exactly the trace the serial
    experiments use.
    """

    system: str
    days: float
    seed: int
    max_jobs: int | None = None

    def materialize(self) -> tuple[SimWorkload, int]:
        """(workload, capacity) for this spec; cached per process."""
        from ..traces.synth import cached_traces

        trace = cached_traces(self.days, self.seed)[self.system]
        workload = workload_from_trace(trace)
        if self.max_jobs:
            workload = workload.slice(self.max_jobs)
        return workload, trace.system.schedulable_units

    def capacity(self) -> int:
        """Schedulable units of the target system (no trace generation)."""
        from ..traces.synth import get_calibration

        return get_calibration(self.system).system.schedulable_units


@dataclass(frozen=True)
class SimTask:
    """One simulation cell of a sweep — pure data, picklable.

    ``label`` is presentation only (it names the cell in results); it is
    deliberately excluded from the cache fingerprint so identically
    configured cells share one cache entry.
    """

    label: str
    workload: WorkloadSpec | SimWorkload
    policy: str = "fcfs"
    backfill: BackfillConfig = EASY
    faults: FaultConfig | None = None
    capacity: int | None = None
    kill_at_walltime: bool = False
    track_queue: bool = False

    def resolved_capacity(self) -> int:
        if self.capacity is not None:
            return int(self.capacity)
        if isinstance(self.workload, WorkloadSpec):
            return self.workload.capacity()
        raise ValueError(
            f"task {self.label!r}: inline workloads need an explicit capacity"
        )

    def canonical(self) -> dict:
        """JSON-serializable identity of the cell (cache-key payload)."""
        if isinstance(self.workload, WorkloadSpec):
            wl: dict = {"kind": "synth", **asdict(self.workload)}
        else:
            wl = {
                "kind": "inline",
                "sha256": workload_fingerprint(self.workload),
                "n": int(self.workload.n),
            }
        return {
            "workload": wl,
            "capacity": self.resolved_capacity(),
            "policy": self.policy,
            "backfill": self.backfill.as_dict(),
            "faults": None if self.faults is None else asdict(self.faults),
            "kill_at_walltime": self.kill_at_walltime,
            "track_queue": self.track_queue,
            "code": code_version(),
        }

    def fingerprint(self) -> str:
        """Content hash identifying this cell's result (see cache docs)."""
        return stable_hash(self.canonical())


@dataclass(frozen=True)
class TaskResult:
    """Serializable outcome of one cell.

    ``metrics`` always carries the full :class:`ScheduleMetrics` key set;
    ``resilience`` is present for fault-injected cells.  ``cached`` marks
    results served from the on-disk cache without running a simulation.
    ``wall_seconds``/``worker``/``perf`` are per-invocation telemetry
    (where and how long the cell ran, and — under ``run_sweep(perf=)`` —
    the worker's serialized span tree / sample stacks / metrics sidecar) —
    like ``label`` and ``cached`` they are excluded from :meth:`payload`,
    so caching and cross-worker identity comparisons never see them.
    """

    label: str
    fingerprint: str
    summary: dict
    metrics: dict
    resilience: dict | None = None
    max_queue: int | None = None
    cached: bool = False
    wall_seconds: float = 0.0
    worker: str = ""
    perf: dict | None = None

    def schedule_metrics(self) -> ScheduleMetrics:
        return ScheduleMetrics(**self.metrics)

    def resilience_metrics(self) -> ResilienceMetrics | None:
        if self.resilience is None:
            return None
        return ResilienceMetrics(**self.resilience)

    def payload(self) -> dict:
        """Cacheable portion (label and cached flag are per-invocation)."""
        return {
            "summary": self.summary,
            "metrics": self.metrics,
            "resilience": self.resilience,
            "max_queue": self.max_queue,
        }

    @classmethod
    def from_payload(
        cls, label: str, fingerprint: str, payload: dict, cached: bool
    ) -> "TaskResult":
        return cls(
            label=label,
            fingerprint=fingerprint,
            summary=payload["summary"],
            metrics=payload["metrics"],
            resilience=payload.get("resilience"),
            max_queue=payload.get("max_queue"),
            cached=cached,
        )


def _run_cell(task: SimTask, profiler=None, metrics=None) -> TaskResult:
    """Run one cell's simulation and summarize it (worker-side core)."""
    if isinstance(task.workload, WorkloadSpec):
        workload, default_capacity = task.workload.materialize()
        capacity = task.capacity if task.capacity is not None else default_capacity
    else:
        workload = task.workload
        capacity = task.resolved_capacity()

    result = simulate(
        workload,
        capacity,
        task.policy,
        task.backfill,
        faults=task.faults,
        track_queue=task.track_queue,
        kill_at_walltime=task.kill_at_walltime,
        metrics=metrics,
        profiler=profiler,
    )
    resilience = (
        None
        if task.faults is None
        else compute_resilience_metrics(result).as_dict()
    )
    metrics_dict = compute_metrics(result).as_dict()
    max_queue = None
    if task.track_queue:
        samples = result.queue_samples
        max_queue = int(samples.max()) if len(samples) else 0
    return TaskResult(
        label=task.label,
        fingerprint=task.fingerprint(),
        summary=result.to_dict(),
        metrics=metrics_dict,
        resilience=resilience,
        max_queue=max_queue,
    )


def _execute_task(task: SimTask, perf: "PerfConfig | None" = None) -> TaskResult:
    """Run one cell to completion (worker-side entry point).

    With ``perf`` set, the cell runs under
    :func:`repro.obs.perf.run_traced`: its span tree (and sampler stacks
    and metrics, as ``perf`` asks) ride back on ``TaskResult.perf``, and a
    raising cell ships its partial tree with the exception.
    """
    if perf is None:
        return _run_cell(task)

    from ..obs.perf import run_traced

    return run_traced(
        perf,
        lambda prof, metrics: _run_cell(task, profiler=prof, metrics=metrics),
        task.label,
        policy=task.policy,
    )


@dataclass
class SweepStats:
    """Execution telemetry for one :func:`run_sweep` invocation.

    ``fingerprint_seconds``/``probe_seconds``/``execute_seconds`` are the
    parent's per-phase wall clock (hashing cells, probing the cache,
    running misses); ``task_seconds`` sums the workers' own per-cell walls
    (> ``execute_seconds`` when workers overlap).  ``cache_hits``/
    ``cache_misses`` are this invocation's deltas, valid even when the
    :class:`ResultCache` instance is shared across sweeps.
    """

    n_tasks: int = 0
    n_cached: int = 0
    n_executed: int = 0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    fingerprint_seconds: float = 0.0
    probe_seconds: float = 0.0
    execute_seconds: float = 0.0
    task_seconds: float = 0.0
    total_seconds: float = 0.0
    #: cells replayed from the sweep journal (subset of ``n_cached``)
    n_journal: int = 0
    #: cells that terminally failed (on_error="skip"/"retry")
    n_failed: int = 0
    #: transient attempts that were retried
    n_retried: int = 0
    #: corrupt cache entries quarantined during this invocation
    cache_corrupt: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        parts = [
            f"{self.n_tasks} task(s)",
            f"{self.n_cached} cached",
            f"{self.n_executed} executed on {self.jobs} worker(s)",
            f"wall {self.total_seconds:.2f}s",
        ]
        if self.n_journal:
            parts.insert(2, f"{self.n_journal} from journal")
        if self.n_failed or self.n_retried:
            parts.append(
                f"{self.n_failed} failed, {self.n_retried} retried attempt(s)"
            )
        if self.cache_corrupt:
            parts.append(f"{self.cache_corrupt} corrupt cache entr(ies) quarantined")
        if self.task_seconds:
            parts.append(f"compute {self.task_seconds:.2f}s")
        return ", ".join(parts)


def _run_record(result: TaskResult, task: SimTask, seq: int, attempt: int = 1):
    """Build the telemetry record for one completed cell."""
    from ..obs.runs import RunRecord

    system = task.workload.system if isinstance(task.workload, WorkloadSpec) else None
    return RunRecord(
        fingerprint=result.fingerprint,
        label=result.label,
        policy=task.policy,
        system=system,
        wall_seconds=result.wall_seconds,
        cached=result.cached,
        worker=result.worker,
        seq=seq,
        code=code_version(),
        metrics=dict(result.metrics),
        ts=time.time(),
        attempt=attempt,
    )


def _failure_record(failure, task: SimTask, seq: int, terminal: bool):
    """Telemetry record for a failed (or retried) execution attempt."""
    from ..obs.runs import RunRecord

    system = task.workload.system if isinstance(task.workload, WorkloadSpec) else None
    prefix = "failed" if terminal else "retried"
    return RunRecord(
        fingerprint=failure.fingerprint,
        label=failure.label,
        policy=task.policy,
        system=system,
        wall_seconds=failure.wall_seconds,
        cached=False,
        worker=failure.worker,
        seq=seq,
        code=code_version(),
        metrics={},
        ts=time.time(),
        status=f"{prefix}:{failure.kind}",
        attempt=failure.attempt,
    )


def run_sweep(
    tasks: Sequence[SimTask],
    options: RunOptions | None = None,
    *,
    registry: "RunRegistry | None" = None,
    progress: "ProgressReporter | None" = None,
    stats_out: SweepStats | None = None,
    failures_out: FailureReport | None = None,
    **fields,
) -> list[TaskResult | None]:
    """Execute a sweep, running cache misses on supervised workers.

    Results come back in task order.  Cells whose fingerprint is present
    in the cache are served from disk (``cached=True``) without running a
    simulation; fresh results are written back.  At any ``jobs`` the
    returned metric dicts are bit-identical — cells are independent and
    carry their own seeds.

    ``options`` is a :class:`RunOptions` (default ``RunOptions()``:
    one worker per available CPU, no cache, no timeout, abort on the
    first terminal failure); ``**fields`` override its fields by name, so
    ``run_sweep(tasks, jobs=4, cache=dir)`` works without building one.
    Every miss runs in a worker process of the supervised pool
    (:func:`repro.runner.watchdog.run_watchdog`), even at ``jobs=1``, so
    crash safety is always on (``docs/PARALLELISM.md`` → "Crash-safe
    sweeps"): a worker that dies mid-cell fails that cell as a transient
    ``crash``.  Under ``on_error="raise"`` the first terminal failure
    aborts with :class:`SweepError` carrying the partial results.
    ``failures_out`` — a :class:`FailureReport` — is filled with terminal
    failures and retried attempts (also counted in ``stats_out``).

    On ``KeyboardInterrupt`` (and any other abort) busy workers are
    killed and idle ones stopped before the exception re-raises — no
    zombie processes, and the journal/registry only ever contain complete
    lines.

    Telemetry (all optional, all pure observers — attaching them changes
    nothing about the results; see ``tests/test_runner.py``):

    * ``registry`` — a :class:`repro.obs.runs.RunRegistry`; one
      :class:`~repro.obs.runs.RunRecord` is appended per cell, cache hits
      first, then computed cells in completion order; failed and retried
      attempts are appended with ``status="failed:*"``/``"retried:*"``.
    * ``progress`` — a :class:`~repro.obs.runs.ProgressReporter`; driven
      from the parent as cells complete.  The default no-op reporter
      keeps the unobserved path free of record construction.
    * ``stats_out`` — a :class:`SweepStats` to fill with cache hit/miss
      deltas, journal/failure/retry counts and per-phase wall time.
    * ``perf`` — a :class:`repro.obs.perf.PerfConfig`; workers run their
      cells under span profilers (plus an optional sampling profiler and
      metrics registry) and ship the serialized payloads back as result
      sidecars, while the parent records its own phase spans and instant
      events (cache hits, journal replays, watchdog retries, failures)
      into ``perf.trace`` — one :class:`~repro.obs.perf.SweepTrace` per
      config, accumulated across ``run_sweep`` calls and written to
      ``perf.trace_out`` / ``perf.stacks_out`` after each sweep
      (docs/OBSERVABILITY.md → "Performance tracing").
    """
    if options is None:
        options = RunOptions(**fields)
    elif fields:
        options = dataclasses.replace(options, **fields)
    jobs, cache, journal = options.jobs, options.cache, options.journal
    chaos, perf = options.chaos, options.perf
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    owns_journal = isinstance(journal, (str, Path))
    if owns_journal:
        journal = SweepJournal(journal)
    tasks = list(tasks)

    report = failures_out if failures_out is not None else FailureReport()
    report.clear()

    trace = None
    worker_perf = None
    if perf is not None:
        from ..obs.perf import SweepTrace
        from ..obs.profiling import Profiler

        if perf.trace is None:
            perf.trace = SweepTrace()
        trace = perf.trace
        pprof = Profiler(worker="sweep-parent")
        worker_perf = perf.worker_config()
    else:
        from ..obs.profiling import NULL_PROFILER as pprof

    t_start = time.perf_counter()
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    corrupt0 = cache.corrupt if cache is not None else 0

    with pprof.span("fingerprint", n_tasks=len(tasks)):
        fingerprints = [t.fingerprint() for t in tasks]
    t_fingerprinted = time.perf_counter()

    journaled = journal.completed() if journal is not None else {}
    if journal is not None:
        journal.start(len(tasks))

    results: dict[int, TaskResult] = {}
    misses: list[int] = []
    journal_hits = 0
    with pprof.span("cache_probe"):
        for i, (task, fp) in enumerate(zip(tasks, fingerprints)):
            if fp in journaled:
                results[i] = TaskResult.from_payload(
                    task.label, fp, journaled[fp], cached=True
                )
                journal_hits += 1
                if trace is not None:
                    trace.add_event("journal_replay", task.label)
                continue
            payload = cache.get(fp) if cache is not None else None
            if payload is not None:
                results[i] = TaskResult.from_payload(
                    task.label, fp, payload, cached=True
                )
                if trace is not None:
                    trace.add_event("cache_hit", task.label)
                if journal is not None:
                    # journal the hit so a resume never depends on the cache
                    journal.record(fp, payload)
            else:
                misses.append(i)
    t_probed = time.perf_counter()

    if progress is None:
        from ..obs.runs import NULL_PROGRESS

        progress = NULL_PROGRESS
    # Records cost a dict copy per cell; skip building them entirely when
    # nobody is listening (same fast-path contract as Tracer.enabled).
    observing = registry is not None or progress.enabled
    seq = 0
    done = 0
    total = len(tasks)
    if observing:
        progress.sweep_start(total, len(results), jobs)
        for i in sorted(results):
            source = "journal" if fingerprints[i] in journaled else "cache"
            record = _run_record(
                dataclasses.replace(results[i], worker=source), tasks[i], seq
            )
            if registry is not None:
                registry.append(record)
            seq += 1
            done += 1
            progress.task_done(record, done, total)

    task_seconds = 0.0
    abort_failure = None

    def _complete(i: int, res: TaskResult, wall: float, worker: str,
                  attempt: int = 1) -> None:
        nonlocal seq, done, task_seconds
        task_seconds += wall
        res = dataclasses.replace(res, wall_seconds=wall, worker=worker)
        results[i] = res
        if trace is not None and res.perf is not None:
            trace.add_cell(res.label, res.perf)
        if cache is not None:
            cache.put(fingerprints[i], res.payload())
            if chaos is not None:
                chaos.corrupt_cache_entry(cache, fingerprints[i])
        if journal is not None:
            journal.record(fingerprints[i], res.payload())
        if observing:
            record = _run_record(res, tasks[i], seq, attempt=attempt)
            if registry is not None:
                registry.append(record)
            seq += 1
            done += 1
            progress.task_done(record, done, total)

    def _terminal_failure(i: int, failure) -> None:
        nonlocal seq, done
        report.failures.append(failure)
        if trace is not None:
            trace.add_event(
                "failed", failure.label, failure_kind=failure.kind,
                attempt=failure.attempt,
            )
            if failure.perf is not None:
                trace.add_cell(failure.label, failure.perf, failed=True)
        if observing:
            record = _failure_record(failure, tasks[i], seq, terminal=True)
            if registry is not None:
                registry.append(record)
            seq += 1
            done += 1
            progress.task_done(record, done, total)

    def _retried(i: int, failure) -> None:
        nonlocal seq
        report.retries.append(failure)
        if trace is not None:
            trace.add_event(
                "retry", failure.label, failure_kind=failure.kind,
                attempt=failure.attempt,
            )
            if failure.perf is not None:
                trace.add_cell(failure.label, failure.perf, failed=True)
        if observing:
            record = _failure_record(failure, tasks[i], seq, terminal=False)
            if registry is not None:
                registry.append(record)
            seq += 1
            progress.task_retried(record)

    execute_fn = _execute_task
    if worker_perf is not None:
        # functools.partial of a module-level function pickles under both
        # fork and spawn, so workers get the stripped per-cell perf knobs
        execute_fn = functools.partial(_execute_task, perf=worker_perf)
    exec_span = pprof.span("execute", n_miss=len(misses), jobs=jobs)
    exec_span.__enter__()
    try:
        if misses and _mp_context().get_start_method() == "fork":
            # forked workers inherit the parent's trace cache: synthesize
            # each WorkloadSpec's traces once here, not once per worker
            from ..traces.synth import cached_traces

            specs = {
                (w.days, w.seed)
                for i in misses
                if isinstance(w := tasks[i].workload, WorkloadSpec)
            }
            for days, seed in sorted(specs):
                cached_traces(days, seed)
        items = [(i, tasks[i], fingerprints[i]) for i in misses]
        gen = run_watchdog(
            items,
            execute_fn,
            jobs=min(jobs, len(items)),
            timeout=options.timeout,
            retry=options.retry,
            chaos=chaos,
        )
        try:
            for event in gen:
                if event[0] == "done":
                    _, i, res, wall, worker, attempt = event
                    _complete(i, res, wall, worker, attempt)
                elif event[0] == "retry":
                    _retried(event[1], event[2])
                else:
                    _terminal_failure(event[1], event[2])
                    if options.on_error == "raise":
                        abort_failure = event[2]
                        break
        finally:
            # closing the generator kills any busy workers and stops the
            # idle ones — this is the KeyboardInterrupt path too
            gen.close()
    finally:
        exec_span.__exit__(None, None, None)
        if owns_journal:
            journal.close()
        if trace is not None:
            # flush even on abort/KeyboardInterrupt: a partial trace of a
            # crashed sweep is exactly when you want the timeline
            trace.add_parent(pprof.to_payload())
            trace.flush(perf)
    t_executed = time.perf_counter()

    stats = stats_out if stats_out is not None else SweepStats()
    stats.n_tasks = total
    stats.n_cached = total - len(misses)
    stats.n_executed = len(misses)
    stats.jobs = jobs
    stats.cache_hits = (cache.hits - hits0) if cache is not None else 0
    stats.cache_misses = (cache.misses - misses0) if cache is not None else 0
    stats.cache_corrupt = (cache.corrupt - corrupt0) if cache is not None else 0
    stats.n_journal = journal_hits
    stats.n_failed = report.n_failed
    stats.n_retried = report.n_retried
    stats.fingerprint_seconds = t_fingerprinted - t_start
    stats.probe_seconds = t_probed - t_fingerprinted
    stats.execute_seconds = t_executed - t_probed
    stats.task_seconds = task_seconds
    stats.total_seconds = t_executed - t_start
    if observing:
        progress.sweep_end(stats.as_dict())

    ordered = [results.get(i) for i in range(len(tasks))]
    if abort_failure is not None:
        raise SweepError(report, ordered)
    return ordered
