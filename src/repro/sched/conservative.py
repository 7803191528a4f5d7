"""Conservative backfilling engine.

Unlike EASY (one reservation for the queue head), *conservative*
backfilling gives **every** queued job a reservation; a lower-priority job
may start early only if it fits without moving any earlier reservation.
Each scheduling round rebuilds the future-availability profile — a step
function of free cores over ``[now, inf)`` — from the running jobs'
walltime ends, then walks the ranked queue once: every job gets the
earliest start at which it fits for its whole walltime, and that
reservation is subtracted from the profile before the next job looks.

The hot path works on flat data:

* **Batched profile rebuild.**  The profile is two flat, parallel lists
  (breakpoint times ``T`` / free cores ``F``) built in one shot: running
  jobs' walltime ends are sorted with ``np.argsort``, deduplicated with
  one vectorized comparison, and the free-core levels fall out of a
  single ``cumsum`` of released cores.
* **Scalar hole-finding.**  The earliest-fit scan and the reservation
  decrement run over ``T``/``F`` with local cursors, C-level ``bisect``
  for breakpoint lookup and slice-assigned decrements.
* **Rank-ordered queue.**  Static policies (see
  :data:`~repro.sched.fast.STATIC_POLICIES`) get one global
  ``Policy.order`` up front and the pending queue is kept in rank order
  by ``bisect`` insertion, so each round's ranked walk is the list
  itself.  Clock-dependent policies rank the live queue once per round.
  Conservative backfilling feeds no fair-share usage, so ``fairshare``
  ranks first come, first served.

Tie-breaks, the first-promise rule (``promised`` records the *first*
reservation, including immediate starts), queue sampling at every round
(before the empty-queue early-out) and the ``min(t_sub, t_fin)`` event
clock follow the readable specification, the O(n²) oracle
(:func:`repro.testkit.oracle_simulate` with ``engine="conservative"``);
``repro fuzz`` and ``tests/test_fast_engine.py`` hold this engine to it
bit for bit, and ``tests/goldens/conservative_policies.json`` freezes
results at queue depths the oracle cannot reach in a test.

Walltime-kill semantics (``kill_at_walltime``): a job whose runtime exceeds
its (possibly predicted) walltime is terminated at the walltime — the
failure mode that makes runtime *under*-estimation expensive and motivates
the paper's use case 1.  The truncation itself is shared with the EASY
engine via :meth:`~repro.sched.job.SimWorkload.clipped_to_walltime`.

Observability mirrors :func:`repro.sched.simulate`: optional ``tracer`` /
``metrics`` / ``profiler`` sinks, each tested through a local flag so an
uninstrumented run does no sink work.  The tracer receives events through
the ``Tracer`` protocol as they happen; reservation events are emitted
only for a job's *first* promise, and only when it lies in the future
(every queued job re-reserves every round; logging each would swamp the
stream).  A fine-grained profiler's ``profile_rebuild`` span times the
per-round profile reconstruction — the known hot path of conservative
backfilling.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

import numpy as np

from ..obs import events as ev
from ..obs.profiling import NULL_PROFILER
from .engine import SimResult
from .fast import STATIC_POLICIES
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = ["simulate_conservative"]


def simulate_conservative(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    kill_at_walltime: bool = False,
    track_queue: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """Run conservative backfilling over a workload.

    Returns the same :class:`SimResult` as :func:`repro.sched.simulate`;
    with ``kill_at_walltime`` the effective runtimes in the result's
    workload are clipped to the walltime (killed jobs end early).
    ``tracer`` receives the decision log, ``metrics`` its counters,
    gauges and sim-time series, and ``profiler`` one ``simulate`` root
    span; a fine-grained one also gets ``event_drain``,
    ``profile_rebuild`` and ``backfill_scan`` spans per round and a
    ``policy_sort`` span per ranking (once per run for a static policy).
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    if int(workload.cores.max()) > capacity:
        raise ValueError("job larger than cluster capacity")

    if kill_at_walltime:
        workload = workload.clipped_to_walltime()
    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime

    # plain-Python scalar mirrors, as in fast.py
    submit_l = submit.tolist()
    cores_l = cores.tolist()
    walltime_l = walltime.tolist()
    runtime_l = workload.runtime.tolist()

    prof = NULL_PROFILER if profiler is None else profiler
    # phase spans only under a fine-grained profiler; each site tests this
    # flag and enters its span explicitly (see fast.py)
    fine = prof.fine
    emit = None
    if tracer is not None and getattr(tracer, "enabled", True):
        emit = tracer.emit
    mets = metrics is not None
    if mets:
        g_free = metrics.gauge("sim_free_cores", "unallocated cores")
        g_queue = metrics.gauge("sim_queue_depth", "jobs waiting in the queue")
        g_util = metrics.gauge("sim_utilization", "allocated fraction of capacity")
        c_submitted = metrics.counter("sim_jobs_submitted_total", "jobs entering the queue")
        c_started = metrics.counter("sim_jobs_started_total", "job starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "job completions")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        g_free.set(capacity)

    start_np = np.full(n, -1.0)
    promised_np = np.full(n, np.nan)
    promised_f = bytearray(n)  # "has a first reservation" flag
    started_f = bytearray(n)

    # running set: parallel lists + swap-remove position map; rebuild order
    # is irrelevant (the step function is a set union of subtractions)
    run_jobs: list[int] = []
    run_ends: list[float] = []
    run_cores: list[int] = []
    run_pos: dict[int, int] = {}

    finish_heap: list[tuple[float, int]] = []
    free = int(capacity)
    next_submit = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    INF = float("inf")
    cap = int(capacity)
    policy_name = getattr(policy, "name", type(policy).__name__)

    if emit is not None:
        emit(
            ev.RUN_START,
            float(submit_l[0]),
            capacity=int(capacity),
            n_jobs=int(n),
            policy=policy_name,
            backfill={"mode": "conservative"},
            engine="conservative",
        )
    # root span encloses the whole event loop; left open on an exception so
    # Profiler.to_payload() serializes it as a partial tree
    root_span = prof.span(
        "simulate",
        engine="conservative",
        policy=policy_name,
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()

    static = type(policy) is Policy and policy.name in STATIC_POLICIES
    if static:
        # one global rank, as fast.py: a stable lexsort that ties by
        # (submit, index); the queue only ever loses jobs between rounds, so
        # restricting this rank to any round's queue is that round's order
        if fine:
            span = prof.span("policy_sort").__enter__()
        order_all = policy.order(submit, cores, walltime, float(submit_l[0]))
        if fine:
            span.__exit__(None, None, None)
        rank_of_np = np.empty(n, dtype=np.int64)
        rank_of_np[order_all] = np.arange(n, dtype=np.int64)
        rank_of = rank_of_np.tolist()
        qranks: list[int] = []  # sorted; parallel to qjobs
        qjobs: list[int] = []
    else:
        pend: list[int] = []  # index-ascending
    n_live = 0

    def schedule(now: float) -> None:
        nonlocal free, n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if not n_live:
            return

        if static:
            ranked = qjobs
        else:
            if fine:
                span = prof.span("policy_sort").__enter__()
            arr = np.asarray(pend)
            order = policy.order(submit[arr], cores[arr], walltime[arr], now)
            ranked = arr[order].tolist()
            if fine:
                span.__exit__(None, None, None)

        # ---- batched profile rebuild (flat lists, one vectorized pass)
        if fine:
            span = prof.span("profile_rebuild").__enter__()
        T = [now]
        F = [cap]
        if run_ends:
            e = np.maximum(np.asarray(run_ends), now)
            h = np.asarray(run_cores, dtype=np.int64)
            live = e > now
            if not live.all():
                e = e[live]
                h = h[live]
            if e.size:
                o = np.argsort(e, kind="stable")
                es = e[o]
                hs = h[o]
                last = np.empty(es.size, dtype=bool)
                last[:-1] = es[1:] != es[:-1]
                last[-1] = True
                csum = np.cumsum(hs)
                total = int(csum[-1])
                T += es[last].tolist()
                F = [cap - total] + (cap - total + csum[last]).tolist()
        if fine:
            span.__exit__(None, None, None)
            span = prof.span("backfill_scan").__enter__()

        started = 0
        for j in ranked:
            c = cores_l[j]
            d = walltime_l[j]
            # -- earliest fit: T[0] == now and every later breakpoint is
            # > now, so the scan starts at step 0
            s = len(T)
            k = 0
            candidate = now
            while True:
                if F[k] < c:
                    k += 1
                    candidate = T[k]  # tail is fully free: k < s always
                    continue
                end = candidate + d
                i = k + 1
                ok = True
                while i < s and T[i] < end:
                    if F[i] < c:
                        candidate = T[i]  # restart after the dip
                        k = i
                        ok = False
                        break
                    i += 1
                if ok:
                    break
            t0 = candidate
            # -- reserve [t0, t0 + d)
            rend = t0 + d
            if rend > t0 and c:
                i = bisect_left(T, t0)
                if i == s or T[i] != t0:
                    T.insert(i, t0)
                    F.insert(i, F[i - 1])
                    s += 1
                k2 = bisect_left(T, rend, i)
                if k2 == s or T[k2] != rend:
                    T.insert(k2, rend)
                    F.insert(k2, F[k2 - 1])
                    s += 1
                F[i:k2] = [x - c for x in F[i:k2]]
            if not promised_f[j]:
                promised_f[j] = 1
                promised_np[j] = t0
                if emit is not None and t0 > now:
                    # queue still counts every job of the round
                    emit(
                        ev.RESERVATION,
                        now,
                        j,
                        shadow=t0,
                        queue=n_live,
                        free=free,
                    )
            if t0 <= now:
                start_np[j] = now
                started_f[j] = 1
                started += 1
                run_pos[j] = len(run_jobs)
                run_jobs.append(j)
                run_ends.append(now + d)
                run_cores.append(c)
                heapq.heappush(finish_heap, (now + runtime_l[j], j))
                free -= c
                if emit is not None:
                    emit(
                        ev.START,
                        now,
                        j,
                        cores=c,
                        free=free,
                        queue=n_live,
                        wait=now - submit_l[j],
                    )
                if mets:
                    c_started.inc()
                    h_wait.observe(now - submit_l[j])
        if fine:
            span.__exit__(None, None, None)
        if started:
            n_live -= started
            if static:
                keep = [i for i, j in enumerate(qjobs) if not started_f[j]]
                qjobs[:] = [qjobs[i] for i in keep]
                qranks[:] = [qranks[i] for i in keep]
            else:
                pend[:] = [j for j in pend if not started_f[j]]

    now = float(submit_l[0])
    while next_submit < n or finish_heap:
        t_sub = submit_l[next_submit] if next_submit < n else INF
        t_fin = finish_heap[0][0] if finish_heap else INF
        now = t_sub if t_sub <= t_fin else t_fin
        if mets:
            metrics.sample(now)
        if fine:
            span = prof.span("event_drain").__enter__()
        while finish_heap and finish_heap[0][0] <= now:
            _, j = heapq.heappop(finish_heap)
            i = run_pos.pop(j)
            last = len(run_jobs) - 1
            if i != last:
                moved = run_jobs[last]
                run_jobs[i] = moved
                run_ends[i] = run_ends[last]
                run_cores[i] = run_cores[last]
                run_pos[moved] = i
            run_jobs.pop()
            run_ends.pop()
            run_cores.pop()
            free += cores_l[j]
            if emit is not None:
                emit(
                    ev.FINISH,
                    now,
                    j,
                    cores=cores_l[j],
                    free=free,
                    outcome="completed",
                )
            if mets:
                c_finished.inc()
        if next_submit < n and t_sub <= now:
            # batched drain: all submissions at or before this instant
            hi = bisect_right(submit_l, now, next_submit)
            if static:
                for j in range(next_submit, hi):
                    r = rank_of[j]
                    i = bisect_left(qranks, r)
                    qranks.insert(i, r)
                    qjobs.insert(i, j)
            else:
                pend.extend(range(next_submit, hi))
            if emit is not None:
                # queue depth is reported *after* each insertion
                for j in range(next_submit, hi):
                    n_live += 1
                    emit(
                        ev.SUBMIT,
                        now,
                        j,
                        submitted=submit_l[j],
                        cores=cores_l[j],
                        queue=n_live,
                    )
            else:
                n_live += hi - next_submit
            if mets:
                c_submitted.inc(hi - next_submit)
            next_submit = hi
        if fine:
            span.__exit__(None, None, None)
        schedule(now)
        if mets:
            g_free.set(free)
            g_queue.set(n_live)
            g_util.set((capacity - free) / capacity)
    root_span.__exit__(None, None, None)

    assert not n_live and bool(np.all(start_np >= 0)), (
        "scheduler left jobs unserved"
    )
    result = SimResult(
        workload=workload,
        capacity=capacity,
        start=start_np,
        promised=promised_np,
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    if emit is not None:
        emit(ev.RUN_END, now, makespan=float(result.makespan), started=int(n))
    return result
