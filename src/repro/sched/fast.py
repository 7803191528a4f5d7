"""Vectorized structure-of-arrays EASY engine: what :func:`simulate` runs.

:func:`simulate_fast` replays a workload through the scheduling
specification of :mod:`repro.testkit.oracle` — EASY backfilling with the
shadow-time/extra-cores reservation, the relaxed/adaptive window of
:class:`~repro.sched.backfill.BackfillConfig`, and the documented
``(score, submit, index)`` tie-break — with the hot loop built around flat
arrays instead of per-job Python objects:

* **Batched event drain.**  Submissions arriving at the current instant are
  located with one bisection probe of the (sorted) submit column and
  enqueued as a block; completions pop from an ``(end, job)`` heap.
* **Array-backed queue.**  The wait queue is a preallocated ``int64`` index
  buffer walked with head/tail cursors; jobs started out of order (backfill)
  are tombstoned via a flag array instead of ``list.remove``.
* **Vectorized ranking.**  Policies whose score is independent of the clock
  (``fcfs``/``sjf``/``ljf``/``smallest``/``largest``/``f1``) get one global
  ``Policy.order`` up front and the queue is *kept* in rank order; clock-
  dependent scores (``wfp3``/``unicef``) are ranked once per scheduling
  round with the same stable lexsort.
* **Vectorized backfill window test.**  ``now + walltime[rest] <= limit``
  and ``cores[rest] <= free/extra`` run as masked array ops over the ranked
  queue; survivors are then visited in ranked (first-fit) order with scalar
  budget re-checks, which keeps every start decision — and the order
  backfill consumes ``extra`` — bit-identical to the specification.

* **Columnar event recording.**  ``tracer=``/``metrics=`` are accepted
  without giving up the batched hot path: each decision stages only its
  non-derivable scalars into per-kind flat lists (never a dict) and a
  vectorized flush scatters them in blocks — reconstructing cores, user,
  submit time and wait from the workload arrays — into a
  :class:`~repro.obs.columnar.ColumnarRecorder`, whose decoder yields the
  typed dict stream a live tracer receives — same kinds, fields, key order
  and float values.  A foreign tracer (``JsonlTracer``,
  ``RingBufferTracer``, ...) gets the decoded stream replayed into it when
  the run completes; metrics update at the per-decision points, with
  batch-friendly counter increments.  The ``run_start`` event carries
  ``engine="fast"`` as provenance.

**Equivalence argument** (details in ``docs/PERFORMANCE.md``): within one
scheduling round the clock is fixed, so a policy's scores are fixed, and
the specification's re-rank after serving each head is the identity
permutation on the remaining jobs — serving the longest rank-order prefix
that fits is the same sequence of starts.  Fair-share is the one policy
whose scores change *inside* a round (usage credits accrue per start), so
it re-ranks after every served head.  The differential fuzz suite
(``repro fuzz``), ``tests/test_fast_engine.py`` and the
``tests/goldens/easy_policies.json`` golden pin the results bit-exact
against the O(n²) oracle.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from math import inf

import numpy as np

from ..obs import events as ev
from ..obs.columnar import KIND_CODE, ColumnarRecorder
from ..obs.profiling import NULL_PROFILER
from .backfill import BackfillConfig, EASY
from .engine import SimResult, USAGE_EPS
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = ["simulate_fast", "STATIC_POLICIES"]

#: built-in policies whose score arrays do not depend on ``now``; their
#: global rank order is fixed at submission time and is precomputed once
STATIC_POLICIES = frozenset({"fcfs", "sjf", "ljf", "smallest", "largest", "f1"})


def simulate_fast(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """The EASY engine; :func:`repro.sched.simulate` calls this.

    Takes the workload/policy/backfill arguments of
    :func:`repro.sched.engine.simulate` and returns a
    :class:`~repro.sched.engine.SimResult`.  ``tracer`` is supported
    through columnar recording: events stage as flat scalars and decode —
    exactly, field-for-field — either directly (a
    :class:`~repro.obs.columnar.ColumnarRecorder` records in place) or via
    replay into any other tracer when the run completes.  ``metrics``
    updates its instruments per decision, with batched counter
    increments.  ``profiler`` gets one ``simulate`` root span; a
    fine-grained one also gets ``event_drain`` and ``backfill_scan`` spans
    per round and a ``policy_sort`` span per ranking (once per run for a
    static policy).  ``tracer=None`` / ``metrics=None`` / ``profiler=None``
    keep the hot loop untouched: un-instrumented results stay
    bit-identical to instrumented ones.
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
    runtime = workload.runtime
    users = workload.user

    # plain-Python scalar mirrors: list indexing beats NumPy scalar getitem
    # severalfold in the per-event loop, and ``tolist`` yields the exact
    # same doubles, so every scalar computation is unchanged
    submit_l = submit.tolist()
    cores_l = cores.tolist()
    walltime_l = walltime.tolist()
    runtime_l = runtime.tolist()

    prof = NULL_PROFILER if profiler is None else profiler
    # phase spans only under a fine-grained profiler: a recorded span
    # costs microseconds while a scheduling round is itself only tens of
    # microseconds, so coarse mode keeps tracing cheap enough for sweeps.
    # Each site tests this flag and enters its span explicitly, so a run
    # without a fine profiler enters no span inside the loop at all.
    fine = prof.fine

    # observability sinks.  Recording stages only the non-derivable scalars
    # of each decision into per-kind flat lists and bulk-flushes them into
    # a columnar recorder in blocks — no per-event dicts (or even tuples of
    # constants) in the hot loop.  A non-columnar tracer gets the decoded
    # stream replayed into it after the run.
    rec: ColumnarRecorder | None = None
    sink = None
    if tracer is not None and getattr(tracer, "enabled", True):
        if isinstance(tracer, ColumnarRecorder):
            rec = tracer
        else:
            rec = ColumnarRecorder()
            sink = tracer
    mets = metrics is not None
    if mets:
        # the instruments every engine registers, in the same order, so
        # exported payloads compare across engines
        g_free = metrics.gauge("sim_free_cores", "unallocated cores")
        g_queue = metrics.gauge("sim_queue_depth", "jobs waiting in the queue")
        g_util = metrics.gauge("sim_utilization", "allocated fraction of capacity")
        c_submitted = metrics.counter("sim_jobs_submitted_total", "jobs entering the queue")
        c_started = metrics.counter("sim_jobs_started_total", "job starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "job completions")
        c_backfilled = metrics.counter("sim_jobs_backfilled_total", "starts that jumped a blocked head")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        g_free.set(capacity)
    if rec is not None:
        C_SUB = KIND_CODE[ev.SUBMIT]
        C_START = KIND_CODE[ev.START]
        C_FIN = KIND_CODE[ev.FINISH]
        C_RES = KIND_CODE[ev.RESERVATION]
        C_BF = KIND_CODE[ev.BACKFILL]
        OUT_COMPLETED = rec.outcome_code("completed")
        # per-kind flat staging: each decision costs one small-int append
        # (stream order) plus one C-level extend of only the fields the
        # flush cannot reconstruct from the workload arrays (cores, user,
        # submitted and wait are all derivable from the job id).
        korder: list[int] = []
        kord_app = korder.append
        sub_stage: list[float] = []  # (t, job, queue)        x3
        st_stage: list[float] = []   # (t, job, free, queue)  x4
        fin_stage: list[float] = []  # (t, job, free)         x3
        res_stage: list[float] = []  # (t, job, extra, queue, free, shadow)
        bf_stage: list[float] = []   # (t, job, flags, shadow, limit)
        sub_ext = sub_stage.extend
        st_ext = st_stage.extend
        fin_ext = fin_stage.extend
        res_ext = res_stage.extend
        bf_ext = bf_stage.extend

        def flush_stage() -> None:
            """Scatter the staged per-kind rows into the recorder columns.

            One ``np.fromiter`` per staged buffer plus vectorized fills of
            the derivable fields; the interleaving across kinds comes from
            ``korder``, which logs one kind code per event in stream
            order."""
            k = len(korder)
            if not k:
                return
            kc = np.fromiter(korder, np.int8, k)
            tc = np.empty(k, dtype=np.float64)
            jc = np.empty(k, dtype=np.int64)
            i0 = np.zeros(k, dtype=np.int32)
            i1 = np.zeros(k, dtype=np.int32)
            i2 = np.zeros(k, dtype=np.int64)
            f0 = np.zeros(k, dtype=np.float64)
            f1 = np.zeros(k, dtype=np.float64)

            def rows(buf: list[float], width: int, code: int):
                idx = np.flatnonzero(kc == code)
                if not len(idx):
                    return None, idx
                m = np.fromiter(
                    buf, np.float64, len(idx) * width
                ).reshape(-1, width)
                tc[idx] = m[:, 0]
                jc[idx] = m[:, 1].astype(np.int64)
                return m, idx

            m, idx = rows(sub_stage, 3, C_SUB)
            if m is not None:
                j = jc[idx]
                i0[idx] = cores[j]
                i1[idx] = m[:, 2]
                i2[idx] = users[j]
                f0[idx] = submit[j]
            m, idx = rows(st_stage, 4, C_START)
            if m is not None:
                j = jc[idx]
                i0[idx] = cores[j]
                i1[idx] = m[:, 2]
                i2[idx] = m[:, 3]
                # the same IEEE subtraction a per-event emit performs
                f0[idx] = m[:, 0] - submit[j]
            m, idx = rows(fin_stage, 3, C_FIN)
            if m is not None:
                i0[idx] = cores[jc[idx]]
                i1[idx] = m[:, 2]
                i2[idx] = OUT_COMPLETED
            m, idx = rows(res_stage, 6, C_RES)
            if m is not None:
                i0[idx] = m[:, 2]
                i1[idx] = m[:, 3]
                i2[idx] = m[:, 4]
                f0[idx] = m[:, 5]
            m, idx = rows(bf_stage, 5, C_BF)
            if m is not None:
                i0[idx] = cores[jc[idx]]
                i1[idx] = m[:, 2]
                f0[idx] = m[:, 3]
                f1[idx] = m[:, 4]

            rec.append_arrays(kc, tc, jc, i0, i1, i2, f0, f1)
            korder.clear()
            sub_stage.clear()
            st_stage.clear()
            fin_stage.clear()
            res_stage.clear()
            bf_stage.clear()

        rec.emit(
            ev.RUN_START,
            float(submit_l[0]),
            capacity=int(capacity),
            n_jobs=int(n),
            policy=getattr(policy, "name", type(policy).__name__),
            backfill=backfill.as_dict(),
            engine="fast",
        )

    # fair-share support: per-user decayed core-second usage on a dense
    # vector (users remapped to 0..k-1); values match the oracle's dict
    # entry-for-entry, with pruned-below-USAGE_EPS entries reading 0.0
    track_usage = getattr(policy, "half_life_hours", None) is not None
    if track_usage:
        half_life = float(policy.half_life_hours) * 3600.0
        _, uinv = np.unique(users, return_inverse=True)
        uinv_l = uinv.tolist()
        usage = np.zeros(int(uinv.max()) + 1 if n else 0)
    usage_time = float(submit_l[0])

    if type(policy) is Policy and policy.name in STATIC_POLICIES:
        mode = "static"
    elif type(policy) is Policy:
        # clock-dependent score, but stateless: rank once per round
        mode = "dynamic"
    else:
        # Policy subclass (fair-share): scores may change between starts
        # within a round, so re-rank after every served head
        mode = "stateful"

    root_span = prof.span(
        "simulate",
        engine="fast",
        mode=mode,
        policy=getattr(policy, "name", type(policy).__name__),
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()

    rank_of = None
    if mode == "static":
        # one global Policy.order (a stable lexsort) fixes every job's rank
        # up front; ties resolve by (submit, index) as Policy.order
        # documents, because submit is sorted ascending.  This is the only
        # sort a static policy needs.
        if fine:
            span = prof.span("policy_sort").__enter__()
        order_all = policy.order(submit, cores, walltime, float(submit_l[0]))
        if fine:
            span.__exit__(None, None, None)
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[order_all] = np.arange(n, dtype=np.int64)

    # wait queue: index buffer + cursors; started_f doubles as the tombstone
    # flag for jobs that left the queue out of order (served or backfilled)
    qbuf = np.empty(n, dtype=np.int64)
    qhead = 0
    qtail = 0
    n_live = 0
    started_f = bytearray(n)
    started_np = np.frombuffer(started_f, dtype=np.uint8)
    backf_f = bytearray(n)
    prom_f = bytearray(n)

    free = int(capacity)
    start_l = [-1.0] * n
    promised_l = [float("nan")] * n
    finish_heap: list[tuple[float, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    # running jobs as a sorted list of (expected_end, cores), maintained
    # incrementally: the order the oracle's reservation walk uses
    running: list[tuple[float, int]] = []
    exp_end = [0.0] * n
    observed_max_q = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    next_submit = 0

    def start_job(j: int, now: float) -> None:
        nonlocal free
        c = cores_l[j]
        end = now + walltime_l[j]
        free -= c
        start_l[j] = now
        started_f[j] = 1
        exp_end[j] = end
        insort(running, (end, c))
        heappush(finish_heap, (now + runtime_l[j], j))
        if track_usage:
            usage[uinv_l[j]] += float(c) * float(walltime_l[j])

    def blocked_head(head: int, now: float, rest: np.ndarray | None) -> None:
        """Reserve for the blocked head, then one backfill pass over ``rest``.

        ``rest`` is the ranked live queue behind the head (``None`` when the
        caller already knows no backfill can happen).  ``n_live`` still
        counts the head and everything in ``rest`` here, matching the
        ``len(pending)`` the oracle feeds ``relax_fraction``.
        """
        nonlocal free, n_live
        need = cores_l[head]
        acc = free
        shadow = now
        extra = 0
        for end, c in running:
            acc += c
            if acc >= need:
                shadow = end if end > now else now
                extra = acc - need
                break
        if not prom_f[head]:
            prom_f[head] = 1
            promised_l[head] = shadow
        if rec is not None:
            # a reservation is made (and logged) on every blocked round,
            # before any backfill; queue still counts the head
            kord_app(C_RES)
            res_ext((now, head, extra, n_live, free, shadow))
        if not backfill.enabled or rest is None or not len(rest) or free == 0:
            return
        if fine:
            span = prof.span("backfill_scan").__enter__()
        cr = cores[rest]
        if cr.min() > free:
            # every candidate is wider than the free cores: nothing starts
            if fine:
                span.__exit__(None, None, None)
            return
        q0 = n_live  # the oracle defers pending deletes across the scan
        frac = backfill.relax_fraction(n_live, observed_max_q)
        limit = shadow + frac * max(shadow - submit_l[head], 0.0)
        # vectorized prefilter: free and extra only shrink during the
        # scan and a skipped candidate has no side effects, so any job
        # failing these tests against the *initial* budgets can never
        # start this round — dropping it here is exactly the oracle's
        # ``continue``.  (`now + walltime <= limit` must stay in exactly
        # this form: the algebraically equal `walltime <= limit - now`
        # rounds differently)
        fits_w = now + walltime[rest] <= limit
        # scan candidates in ranked (first-fit) order.  The budgets
        # change only when a job starts, so between starts the next
        # start is the first position satisfying the *current* budgets
        # — found with one vectorized mask + argmax over the remaining
        # tail instead of a per-candidate Python loop.  Positions
        # skipped in between fail exactly the tests the oracle applies
        # to them, because the oracle evaluates them against these
        # same (unchanged) budgets.
        m = len(rest)
        i = 0
        while free:
            crr = cr[i:] if i else cr
            ok = crr <= free
            if extra > 0:
                ok &= (fits_w[i:] if i else fits_w) | (crr <= extra)
            else:
                ok &= fits_w[i:] if i else fits_w
            am = int(ok.argmax())
            if not ok[am]:
                break
            p = i + am
            j = int(rest[p])
            fw = fits_w[p]
            if rec is not None:
                # fits_extra is evaluated against the budget *before* this
                # start consumes it
                kord_app(C_BF)
                bf_ext((
                    now, j,
                    (1 if fw else 0) | (2 if cores_l[j] <= extra else 0),
                    shadow, limit,
                ))
            if mets:
                c_backfilled.inc()
            if not fw:
                # consuming the reservation's spare cores shrinks it; a
                # window-fit start never does
                extra -= cores_l[j]
            start_job(j, now)
            if rec is not None:
                kord_app(C_START)
                st_ext((now, j, free, q0))
            if mets:
                c_started.inc()
                h_wait.observe(now - submit_l[j])
            backf_f[j] = 1
            n_live -= 1
            i = p + 1
            if i >= m:
                break
        if fine:
            span.__exit__(None, None, None)

    def compact() -> None:
        nonlocal qhead, qtail
        live = qbuf[qhead:qtail]
        live = live[started_np[live] == 0]
        k = len(live)
        qbuf[:k] = live
        qhead = 0
        qtail = k

    def push_batch(lo: int, hi: int) -> None:
        nonlocal qhead, qtail, n_live
        k = hi - lo
        if n_live == 0:
            qhead = qtail = 0
        if rank_of is None:
            # index-ordered queue: arrivals append in index order
            if k == 1:
                qbuf[qtail] = lo
            else:
                qbuf[qtail:qtail + k] = np.arange(lo, hi, dtype=np.int64)
            qtail += k
        else:
            # rank-ordered queue: append when every arrival outranks the
            # buffer tail (always true for fcfs), else merge (rare)
            if k == 1:
                r = rank_of[lo]
                if qtail == 0 or r > rank_of[qbuf[qtail - 1]]:
                    qbuf[qtail] = lo
                    qtail += 1
                else:
                    _merge(np.array([lo], dtype=np.int64))
            else:
                batch = np.arange(lo, hi, dtype=np.int64)
                br = rank_of[batch]
                batch = batch[np.argsort(br, kind="stable")]
                if qtail == 0 or br.min() > rank_of[qbuf[qtail - 1]]:
                    qbuf[qtail:qtail + k] = batch
                    qtail += k
                else:
                    _merge(batch)
        n_live += k

    def _merge(batch: np.ndarray) -> None:
        nonlocal qhead, qtail
        live = qbuf[qhead:qtail]
        live = live[started_np[live] == 0]
        pos = np.searchsorted(rank_of[live], rank_of[batch])
        merged = np.insert(live, pos, batch)
        m = len(merged)
        qbuf[:m] = merged
        qhead = 0
        qtail = m

    def schedule_static(now: float) -> None:
        nonlocal qhead, n_live, observed_max_q
        if n_live > observed_max_q:
            observed_max_q = n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        # amortized tombstone collection: a compaction costs O(region) and
        # is triggered only after ~n_live/4 removals accumulated, so each
        # backfill removal pays O(1) extra
        dead = (qtail - qhead) - n_live
        if dead > 64 and dead * 4 > n_live:
            compact()
        h = qhead
        tail = qtail
        while True:
            while h < tail and started_f[qbuf[h]]:
                h += 1
            qhead = h
            if h == tail:
                return
            head = int(qbuf[h])
            if cores_l[head] <= free:
                start_job(head, now)
                if rec is not None:
                    # queue counts the head itself, free is post-allocation
                    kord_app(C_START)
                    st_ext((now, head, free, n_live))
                if mets:
                    c_started.inc()
                    h_wait.observe(now - submit_l[head])
                n_live -= 1
                h += 1
                continue
            if backfill.enabled and free > 0:
                rest = qbuf[h + 1:tail]
                if len(rest) != n_live - 1:
                    rest = rest[started_np[rest] == 0]
            else:
                rest = None
            blocked_head(head, now, rest)
            return

    def schedule_dynamic(now: float) -> None:
        nonlocal qhead, qtail, n_live, observed_max_q
        if n_live > observed_max_q:
            observed_max_q = n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if n_live == 0:
            return
        arr = qbuf[qhead:qtail]
        if len(arr) != n_live:
            compact()
            arr = qbuf[:qtail]
        # scores are fixed within the round, so one stable lexsort equals
        # the oracle's sort-serve-resort sequence; the longest rank-
        # order prefix whose cumulative cores fit is exactly the set of
        # heads the oracle serves before blocking
        if fine:
            span = prof.span("policy_sort").__enter__()
        order = policy.order(submit[arr], cores[arr], walltime[arr], now)
        ranked = arr[order]
        if fine:
            span.__exit__(None, None, None)
        if cores_l[ranked[0]] > free:
            k = 0  # the head blocks: the usual round on a busy machine
        else:
            k = int(np.searchsorted(np.cumsum(cores[ranked]), free, side="right"))
        if k:
            if rec is None and not mets:
                for j in ranked[:k].tolist():
                    start_job(j, now)
            else:
                # the heads are served one by one, each leaving
                # pending before the next — the queue field counts down
                q = n_live
                for j in ranked[:k].tolist():
                    start_job(j, now)
                    if rec is not None:
                        kord_app(C_START)
                        st_ext((now, j, free, q))
                    if mets:
                        c_started.inc()
                        h_wait.observe(now - submit_l[j])
                    q -= 1
            n_live -= k
        if k == len(ranked):
            return
        blocked_head(int(ranked[k]), now, ranked[k + 1:])

    def schedule_stateful(now: float) -> None:
        nonlocal qhead, qtail, n_live, observed_max_q, usage_time, usage
        if n_live > observed_max_q:
            observed_max_q = n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if track_usage and now > usage_time:
            # decay at every scheduling instant — float pow is
            # not associative, so coalescing decays would drift low bits
            usage_time_delta = now - usage_time
            usage *= 0.5 ** (usage_time_delta / half_life)
            usage[usage < USAGE_EPS] = 0.0
            usage_time = now
        while True:
            if n_live == 0:
                return
            arr = qbuf[qhead:qtail]
            if len(arr) != n_live:
                compact()
                arr = qbuf[:qtail]
            if fine:
                span = prof.span("policy_sort").__enter__()
            if track_usage:
                order = policy.order(
                    submit[arr], cores[arr], walltime[arr], now,
                    user=users[arr], usage=usage[uinv[arr]],
                )
            else:
                order = policy.order(submit[arr], cores[arr], walltime[arr], now)
            ranked = arr[order]
            if fine:
                span.__exit__(None, None, None)
            head = int(ranked[0])
            if cores_l[head] <= free:
                start_job(head, now)
                if rec is not None:
                    kord_app(C_START)
                    st_ext((now, head, free, n_live))
                if mets:
                    c_started.inc()
                    h_wait.observe(now - submit_l[head])
                n_live -= 1
                continue  # usage moved: re-rank before the next head
            blocked_head(head, now, ranked[1:])
            return

    schedule = {
        "static": schedule_static,
        "dynamic": schedule_dynamic,
        "stateful": schedule_stateful,
    }[mode]

    INF = inf
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
            _end, j = heappop(finish_heap)
            free += cores_l[j]
            i = bisect_left(running, (exp_end[j], cores_l[j]))
            del running[i]
            if rec is not None:
                kord_app(C_FIN)
                fin_ext((now, j, free))
            if mets:
                c_finished.inc()
        if next_submit < n and t_sub <= now:
            # batched drain: everything submitted up to `now` in one probe
            hi = bisect_right(submit_l, now, next_submit)
            if rec is not None:
                # queue depth is reported *after* each insertion
                q = n_live
                for j in range(next_submit, hi):
                    q += 1
                    kord_app(C_SUB)
                    sub_ext((now, j, q))
            if mets:
                c_submitted.inc(hi - next_submit)
            push_batch(next_submit, hi)
            next_submit = hi
        if fine:
            span.__exit__(None, None, None)
        schedule(now)
        if rec is not None and len(korder) >= 8192:
            flush_stage()
        if mets:
            g_free.set(free)
            g_queue.set(n_live)
            g_util.set((capacity - free) / capacity)
    root_span.__exit__(None, None, None)

    start = np.asarray(start_l, dtype=np.float64)
    assert n_live == 0 and bool(np.all(start >= 0)), "scheduler left jobs unserved"
    result = SimResult(
        workload=workload,
        capacity=capacity,
        start=start,
        promised=np.asarray(promised_l, dtype=np.float64),
        backfilled=np.frombuffer(backf_f, dtype=np.uint8).astype(bool),
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    if rec is not None:
        flush_stage()
        rec.emit(
            ev.RUN_END,
            now,
            makespan=float(result.makespan),
            started=int(n),
            backfilled=int(result.backfilled.sum()),
        )
        if sink is not None:
            rec.replay(sink)
    return result
