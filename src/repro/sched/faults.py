"""Seeded fault injection and resilience for the scheduling simulator.

The trace schema carries terminal statuses (PASSED/FAILED/KILLED) and the
paper's use cases stress how failed and killed jobs waste cluster capacity,
yet the baseline simulator models a perfect machine: every job runs to its
recorded runtime and nodes never fail.  This module makes the machine
imperfect, deterministically:

* a **node-failure process** — per-node exponential MTBF/MTTR draws over
  an explicit node layout imposed on the flat core pool (capacity split
  as evenly as possible across ``n_nodes``, every allocation pinned
  first-fit by node index), so a failed node kills exactly the jobs
  holding units on it, drains, and returns after repair;
* **intrinsic job faults** calibrated from a trace's FAILED/KILLED mix
  (:meth:`FaultConfig.from_workload`): a FAILED attempt aborts partway
  through and may be retried; a KILLED job is cancelled by its user and
  never retried;
* **retry with exponential backoff** (``max_attempts`` / ``backoff_base``
  / ``backoff_factor``) and an optional **checkpoint/restart model**
  (``checkpoint_interval``): a node-killed job resumes from its last
  checkpoint instead of from zero.  Intrinsic failures invalidate
  checkpoints — the computation itself was wrong;
* :func:`simulate_with_faults`, the fault-aware counterpart of
  :func:`repro.sched.simulate`.

Everything is reproducible from ``FaultConfig.seed`` alone, and a null
config (:data:`NO_FAULTS`) reduces *exactly* to the baseline engine —
identical starts, waits and makespan (asserted by the property tests in
``tests/test_sim_invariants.py`` and by every fuzz case).

The engine works on the flat data :mod:`repro.sched.fast` uses:

* **Flat fault state.**  ``remaining`` / ``attempts`` / ``generation`` /
  ``attempt_start`` / terminal ``status`` live in per-job Python lists;
  the node layout is two flat lists (``node_size`` / ``node_free``) plus
  a down-mask, and each running job's spans sit in an insertion-ordered
  table, so a failure's victims come out in the order their attempts
  started.
* **One event heap** of ``(time, priority, seq)`` entries with finish <
  fail < repair < resubmit at equal instants.  A node kill bumps the
  job's generation counter, so its in-flight finish entry is skipped
  when it surfaces (its instant still runs a scheduling pass).
* **One RNG** drawn in a fixed order: per-node MTBF exponentials up
  front, the intrinsic-fate uniform (plus the truncated-duration uniform)
  at each attempt start, one MTTR exponential per failure, one MTBF
  exponential per repair.
* **Rank-ordered static queue.**  The pending queue is a flat int64
  buffer with positional tombstones (a job can re-enter while its dead
  entry still sits in the buffer).  Ties in ``(score, submit)`` resolve
  by *entry* order, and a resubmitted job re-enters at the back, so it
  ranks behind the jobs it ties with.  A global rank cannot express that,
  but the buffer can: under a static policy (:data:`STATIC_POLICIES`) it
  is kept sorted by ``(score, submit, entry order)``.  An arrival that
  ranks at or behind the buffer tail is appended; otherwise the live
  region followed by the arrivals goes through one stable
  ``np.lexsort`` on ``(score, submit)``, whose input order is already
  entry order on ties, so the merge equals the per-round ranking of the
  whole queue.  Each round then serves heads in buffer order until one
  blocks, and collects tombstones on an amortized schedule.
  Clock-dependent policies rank the compacted live region once per
  round and serve the longest affordable rank prefix via
  ``cumsum``/``searchsorted``; fair share re-ranks after every served
  head with a dense usage vector that decays **without** the epsilon
  pruning ``fast.py`` applies.  The EASY backfill window test runs as
  the masked argmax scan ``fast.py`` uses.
* **In-loop sinks.**  ``tracer`` / ``metrics`` / ``profiler`` are tested
  through local flags at each decision point, so an uninstrumented run
  pays a few ``None`` checks and an instrumented one takes the same path.

The readable specification is the O(n²) fault oracle
(:func:`repro.testkit.oracle.oracle_simulate_with_faults`), which
``repro fuzz`` holds this engine to bit for bit on every EASY-family case.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from ..obs import events as ev
from ..obs.profiling import NULL_PROFILER
from ..traces.schema import JobStatus, Trace
from .backfill import BackfillConfig, EASY
from .fast import STATIC_POLICIES
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = [
    "ATTEMPT_COMPLETED",
    "ATTEMPT_NODE_KILLED",
    "ATTEMPT_FAILED",
    "ATTEMPT_USER_KILLED",
    "FaultConfig",
    "NO_FAULTS",
    "FaultSimResult",
    "simulate_with_faults",
]

#: attempt-log outcome codes
ATTEMPT_COMPLETED = 0
ATTEMPT_NODE_KILLED = 1
ATTEMPT_FAILED = 2
ATTEMPT_USER_KILLED = 3

# event priorities at equal timestamps: completions free capacity first,
# then failures strike, repairs return, retries rejoin the queue
_P_FINISH, _P_FAIL, _P_REPAIR, _P_RESUBMIT = 0, 1, 2, 3

_INF = float("inf")

_PASSED = int(JobStatus.PASSED)
_FAILED = int(JobStatus.FAILED)
_KILLED = int(JobStatus.KILLED)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault-injection layer; one ``seed`` drives everything.

    Parameters
    ----------
    node_mtbf:
        Mean time between failures *per node* (seconds, exponential);
        ``inf`` (the default) disables node failures entirely.
    node_mttr:
        Mean time to repair a failed node (seconds, exponential).
    n_nodes:
        Node granularity imposed on the flat core pool.  Capacity is
        split as evenly as possible across nodes.
    fail_prob:
        Per-attempt probability of an intrinsic failure (the trace's
        FAILED class): the attempt aborts at a uniform fraction of its
        planned duration and may be retried.
    kill_prob:
        Per-attempt probability of a user cancellation (the KILLED class):
        the job ends at a uniform fraction of its planned duration and is
        never retried.
    max_attempts:
        Total attempts a job may consume (first run included); 1 disables
        retries.
    backoff_base / backoff_factor:
        Resubmission delay after the k-th attempt dies is
        ``backoff_base * backoff_factor**(k-1)`` seconds.
    checkpoint_interval:
        Checkpoint period in seconds; a node-killed job resumes from its
        last completed checkpoint.  ``None`` restarts from zero.
    seed:
        Seed of the single RNG behind every draw.
    """

    node_mtbf: float = math.inf
    node_mttr: float = 3600.0
    n_nodes: int = 16
    fail_prob: float = 0.0
    kill_prob: float = 0.0
    max_attempts: int = 1
    backoff_base: float = 60.0
    backoff_factor: float = 2.0
    checkpoint_interval: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_mtbf <= 0:
            raise ValueError("node_mtbf must be positive (inf disables)")
        if self.node_mttr <= 0 or not math.isfinite(self.node_mttr):
            raise ValueError("node_mttr must be positive and finite")
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if not 0.0 <= self.fail_prob <= 1.0 or not 0.0 <= self.kill_prob <= 1.0:
            raise ValueError("fail_prob/kill_prob must be probabilities")
        if self.fail_prob + self.kill_prob > 1.0:
            raise ValueError("fail_prob + kill_prob exceeds 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts counts the first run; minimum 1")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base >= 0 and backoff_factor >= 1 required")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive or None")

    @property
    def has_node_faults(self) -> bool:
        """Whether the node MTBF process is active."""
        return math.isfinite(self.node_mtbf)

    @property
    def has_intrinsic_faults(self) -> bool:
        """Whether jobs can fail/be killed on their own."""
        return (self.fail_prob + self.kill_prob) > 0.0

    @property
    def is_null(self) -> bool:
        """True when this config injects nothing (baseline behaviour)."""
        return not (self.has_node_faults or self.has_intrinsic_faults)

    @classmethod
    def from_workload(cls, workload: SimWorkload, **overrides) -> "FaultConfig":
        """Config whose intrinsic mix matches the workload's recorded statuses.

        Requires statuses propagated from the trace
        (:func:`~repro.sched.job.workload_from_trace` does); keyword
        overrides set every other knob.
        """
        status = workload.status
        params: dict = {
            "fail_prob": float((status == int(JobStatus.FAILED)).mean()),
            "kill_prob": float((status == int(JobStatus.KILLED)).mean()),
        }
        params.update(overrides)
        return cls(**params)

    @classmethod
    def from_trace(cls, trace: Trace, **overrides) -> "FaultConfig":
        """Same calibration as :meth:`from_workload`, from a raw trace."""
        status = trace["status"]
        params: dict = {
            "fail_prob": float((status == int(JobStatus.FAILED)).mean()),
            "kill_prob": float((status == int(JobStatus.KILLED)).mean()),
        }
        params.update(overrides)
        return cls(**params)


#: the null config: no node failures, no intrinsic faults, no retries
NO_FAULTS = FaultConfig()


@dataclass
class FaultSimResult:
    """Outcome of one fault-injected simulation run.

    ``start`` holds *first-attempt* starts (so ``wait`` is the time to
    first service, comparable with :class:`~repro.sched.engine.SimResult`);
    ``end`` holds terminal instants — completion, final kill, or
    abandonment after ``max_attempts``.
    """

    workload: SimWorkload
    capacity: int
    faults: FaultConfig
    start: np.ndarray
    end: np.ndarray
    #: terminal :class:`~repro.traces.schema.JobStatus` code per job
    status: np.ndarray
    #: attempts consumed per job
    attempts: np.ndarray
    promised: np.ndarray
    backfilled: np.ndarray
    #: attempt log (struct-of-arrays): job id, start, elapsed, outcome code
    attempt_job: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    attempt_start: np.ndarray = field(default_factory=lambda: np.array([]))
    attempt_elapsed: np.ndarray = field(default_factory=lambda: np.array([]))
    attempt_outcome: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    #: (time, node) log of the node-failure process
    node_fail_times: np.ndarray = field(default_factory=lambda: np.array([]))
    node_fail_nodes: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    node_repair_times: np.ndarray = field(default_factory=lambda: np.array([]))
    queue_samples: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    queue_sample_times: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.float64)
    )

    #: canonical array dtypes — enforced on every construction path so
    #: cache round-trips and platform-default ``np.asarray`` calls (int32
    #: on Windows) cannot change a result's serialized bytes
    _ARRAY_DTYPES = (
        ("start", np.float64),
        ("end", np.float64),
        ("status", np.int64),
        ("attempts", np.int64),
        ("promised", np.float64),
        ("backfilled", np.bool_),
        ("attempt_job", np.int64),
        ("attempt_start", np.float64),
        ("attempt_elapsed", np.float64),
        ("attempt_outcome", np.int64),
        ("node_fail_times", np.float64),
        ("node_fail_nodes", np.int64),
        ("node_repair_times", np.float64),
        ("queue_samples", np.int64),
        ("queue_sample_times", np.float64),
    )

    def __post_init__(self) -> None:
        for name, dtype in self._ARRAY_DTYPES:
            arr = np.asarray(getattr(self, name))
            if arr.dtype != dtype:
                arr = arr.astype(dtype)
            setattr(self, name, arr)

    @property
    def wait(self) -> np.ndarray:
        """Per-job time from submission to first service."""
        return self.start - self.workload.submit

    @property
    def makespan(self) -> float:
        """First submission to last terminal event."""
        return float(self.end.max() - self.workload.submit.min())

    @property
    def completed(self) -> np.ndarray:
        """Mask of jobs that finished their full runtime."""
        return self.status == int(JobStatus.PASSED)

    @property
    def backfill_rate(self) -> float:
        """Fraction of jobs whose first start came via backfilling."""
        if len(self.backfilled) == 0:
            return 0.0
        return float(self.backfilled.mean())

    @property
    def consumed_core_seconds(self) -> float:
        """Core-seconds occupied across every attempt (good or wasted)."""
        if len(self.attempt_job) == 0:
            return 0.0
        cores = self.workload.cores[self.attempt_job]
        return float((self.attempt_elapsed * cores).sum())

    @property
    def goodput_core_seconds(self) -> float:
        """Core-seconds of completed jobs' useful work."""
        done = self.completed
        w = self.workload
        return float((w.runtime[done] * w.cores[done]).sum())

    @property
    def wasted_core_seconds(self) -> float:
        """Occupied core-seconds that produced nothing.

        Lost partial attempts of eventually-completed jobs plus every
        core-second of jobs that never completed.
        """
        return max(self.consumed_core_seconds - self.goodput_core_seconds, 0.0)

    def to_dict(self) -> dict:
        """Canonical run-summary dict (fault-aware superset of
        :meth:`~repro.sched.engine.SimResult.to_dict`)."""
        w = self.workload
        return {
            "n_jobs": int(w.n),
            "capacity": int(self.capacity),
            "makespan_s": float(self.makespan),
            "mean_wait_s": float(self.wait.mean()),
            "median_wait_s": float(np.median(self.wait)),
            "backfill_rate": float(self.backfill_rate),
            "core_seconds": float(self.consumed_core_seconds),
            "completed_fraction": float(self.completed.mean()),
            "mean_attempts": float(self.attempts.mean()),
            "goodput_core_seconds": float(self.goodput_core_seconds),
            "wasted_core_seconds": float(self.wasted_core_seconds),
            "node_failures": int(len(self.node_fail_times)),
        }


#: attempt outcome code -> ``finish`` event ``outcome`` field
_OUTCOME_LABELS = {
    ATTEMPT_COMPLETED: "completed",
    ATTEMPT_FAILED: "failed",
    ATTEMPT_USER_KILLED: "user_killed",
    ATTEMPT_NODE_KILLED: "node_killed",
}


def simulate_with_faults(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    faults: FaultConfig = NO_FAULTS,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> FaultSimResult:
    """Fault-aware counterpart of :func:`repro.sched.simulate`.

    Runs the same reservation-based backfilling scheduler, with node
    failures, intrinsic job faults, retries and checkpoint/restart driven
    by ``faults``.  With :data:`NO_FAULTS` the schedule is identical to
    the baseline engine's, event for event.

    The optional ``tracer`` / ``metrics`` / ``profiler`` sinks mirror
    :func:`repro.sched.simulate` and additionally receive the fault
    layer's events: ``node_fail`` / ``node_repair``, per-attempt
    ``finish`` outcomes, ``retry`` backoff decisions and ``checkpoint``
    restores.  A fine-grained profiler gets ``event_drain`` and
    ``backfill_scan`` spans per round and a ``policy_sort`` span per
    ranking (for a static policy: its scores at run start, then each
    merge into the rank-ordered queue and each same-instant batch sort)
    under the ``simulate`` root span.
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
    users = workload.user

    rng = np.random.default_rng(faults.seed)
    prof = NULL_PROFILER if profiler is None else profiler
    # phase spans only under a fine-grained profiler (see fast.py)
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
        c_started = metrics.counter("sim_jobs_started_total", "attempt starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "attempt terminations")
        c_backfilled = metrics.counter("sim_jobs_backfilled_total", "starts that jumped a blocked head")
        c_node_fail = metrics.counter("sim_node_failures_total", "node failures")
        c_node_repair = metrics.counter("sim_node_repairs_total", "node repairs")
        c_retries = metrics.counter("sim_retries_total", "attempt resubmissions")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        h_attempt = metrics.histogram("sim_attempt_seconds", "attempt durations")
        g_free.set(capacity)

    submit_l = submit.tolist()
    cores_l = cores.tolist()
    walltime_l = walltime.tolist()
    users_l = users.tolist()

    # ---- flat fault state
    full_runtime_l = np.asarray(workload.runtime, dtype=float).tolist()
    remaining_l = list(full_runtime_l)
    attempts_l = [0] * n
    gen_l = [0] * n
    running_f = bytearray(n)
    attempt_start_l = [math.nan] * n
    first_start_l = [-1.0] * n
    status_l = [-1] * n
    end_l = [math.nan] * n
    unfinished = n
    att_job: list[int] = []
    att_start: list[float] = []
    att_elapsed: list[float] = []
    att_outcome: list[int] = []

    has_intrinsic = faults.has_intrinsic_faults
    kill_prob = float(faults.kill_prob)
    kf_prob = faults.kill_prob + faults.fail_prob
    max_attempts = int(faults.max_attempts)
    backoff_base = float(faults.backoff_base)
    backoff_factor = float(faults.backoff_factor)
    ci = faults.checkpoint_interval
    rng_random = rng.random
    rng_exponential = rng.exponential

    # ---- flat cluster: free units, units held by running jobs, and the
    # running table sorted by (expected end, cores) for the shadow walk
    faulty = faults.has_node_faults
    free = int(capacity)
    held = 0
    running: list[tuple[float, int]] = []
    exp_end_l = [0.0] * n
    if faulty:
        n_nodes = max(min(int(faults.n_nodes), int(capacity)), 1)
        base, leftover = divmod(int(capacity), n_nodes)
        node_size = [base + (1 if i < leftover else 0) for i in range(n_nodes)]
        node_free = list(node_size)
        down = bytearray(n_nodes)
        # job -> [(node, units)], in the order the attempts started
        spans_d: dict[int, list[tuple[int, int]]] = {}

    # ---- fair-share usage as a dense vector; decayed, never pruned
    track_usage = getattr(policy, "half_life_hours", None) is not None
    if track_usage:
        half_life = float(getattr(policy, "half_life_hours", 24.0)) * 3600.0
        uniq_users, uinv = np.unique(users, return_inverse=True)
        uinv_l = uinv.tolist()
        usage_vec = np.zeros(len(uniq_users))
        usage_any = False
    usage_time = float(submit[0])

    if type(policy) is Policy and policy.name in STATIC_POLICIES:
        mode = "static"
    elif type(policy) is Policy:
        mode = "dynamic"
    else:
        mode = "stateful"  # fair-share & custom subclasses: re-rank per serve

    prom_np = np.full(n, np.nan)
    prom_f = bytearray(n)
    backf_f = bytearray(n)
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    next_submit = 0
    observed_max_q = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    fail_t: list[float] = []
    fail_n: list[int] = []
    repair_t: list[float] = []
    bf_enabled = backfill.enabled
    relax_fraction = backfill.relax_fraction
    heappush = heapq.heappush
    heappop = heapq.heappop

    # ---- pending queue: flat int64 buffer with positional tombstones (a
    # job id can re-enter while its dead entry still sits in the buffer).
    # A job is queued at most once at a time, so ``n`` slots hold every
    # live entry.  Fresh submissions enter in index order and resubmitted
    # jobs re-enter at the back: ties in (score, submit) resolve by that
    # entry order, so a resubmitted job ranks *behind* the jobs it ties
    # with.  Under a static policy the buffer is kept in rank order, which
    # is (score, submit, entry order): an entry that ranks at or behind
    # the buffer tail is appended, and any other is merged by one stable
    # lexsort of the live region followed by the new entries.  The live
    # region is already in rank order and the new entries come last in
    # entry order, so the stable sort breaks every tie by entry order and
    # the merged buffer is the ranking a lexsort of the whole entry-ordered
    # queue gives.  The other modes rank the live region every round.
    qbuf = np.empty(n, dtype=np.int64)
    qdead = bytearray(n)
    qdead_np = np.frombuffer(qdead, dtype=np.bool_)
    qhead = 0
    qtail = 0
    n_live = 0

    def compact() -> None:
        nonlocal qhead, qtail
        live = qbuf[qhead:qtail][~qdead_np[qhead:qtail]]
        k = len(live)
        qbuf[:k] = live
        qdead_np[:k] = False
        qhead = 0
        qtail = k

    def q_append(j: int) -> None:
        """Enqueue one job at the back."""
        nonlocal qhead, qtail, n_live
        if n_live == 0:
            qhead = qtail = 0
        elif qtail == n:
            compact()
        qbuf[qtail] = j
        qdead[qtail] = 0
        qtail += 1
        n_live += 1

    def q_extend(batch: np.ndarray) -> None:
        """Enqueue ``batch`` at the back, in its order."""
        nonlocal qhead, qtail, n_live
        k = len(batch)
        if n_live == 0:
            qhead = qtail = 0
        elif qtail + k > n:
            compact()
        qbuf[qtail:qtail + k] = batch
        qdead_np[qtail:qtail + k] = False
        qtail += k
        n_live += k

    def behind_tail(j: int) -> bool:
        """Whether ``j`` ranks at or behind the buffer's last entry (live
        or dead: every live entry ranks at or before it)."""
        t = int(qbuf[qtail - 1])
        s = static_scores_l[j]
        ts = static_scores_l[t]
        return s > ts or (s == ts and submit_l[j] >= submit_l[t])

    def q_merge(batch: np.ndarray) -> None:
        """Rank ``batch`` (in entry order) into the rank-ordered buffer."""
        nonlocal qhead, qtail, n_live
        live = qbuf[qhead:qtail]
        if len(live) != n_live:
            live = live[~qdead_np[qhead:qtail]]
        merged = np.concatenate((live, batch))
        merged = merged[np.lexsort((submit[merged], static_scores[merged]))]
        k = len(merged)
        qbuf[:k] = merged
        qdead_np[:k] = False
        qhead = 0
        qtail = k
        n_live = k

    def rank_one(j: int) -> None:
        """Enqueue one job under a static policy."""
        if n_live == 0 or behind_tail(j):
            q_append(j)
            return
        if fine:
            span = prof.span("policy_sort").__enter__()
        q_merge(np.array([j], dtype=np.int64))
        if fine:
            span.__exit__(None, None, None)

    def rank_batch(lo: int, hi: int) -> None:
        """Enqueue fresh submissions ``lo..hi`` under a static policy."""
        if hi - lo == 1:
            rank_one(lo)
            return
        if fine:
            span = prof.span("policy_sort").__enter__()
        batch = lo + np.lexsort((submit[lo:hi], static_scores[lo:hi]))
        if n_live == 0 or behind_tail(int(batch[0])):
            q_extend(batch)
        else:
            q_merge(batch)
        if fine:
            span.__exit__(None, None, None)

    if mode == "static":
        requeue = rank_one
        enqueue = rank_batch
    else:
        requeue = q_append

        def enqueue(lo: int, hi: int) -> None:
            q_extend(np.arange(lo, hi, dtype=np.int64))

    if faulty:
        t0 = float(submit[0])
        for node in range(n_nodes):
            heappush(events, (t0 + rng_exponential(faults.node_mtbf), _P_FAIL, seq, node))
            seq += 1

    policy_name = getattr(policy, "name", type(policy).__name__)
    if emit is not None:
        emit(
            ev.RUN_START,
            float(submit[0]),
            capacity=int(capacity),
            n_jobs=int(n),
            policy=policy_name,
            backfill=backfill.as_dict(),
            engine="easy+faults",
            faults={
                "node_mtbf": (
                    faults.node_mtbf if math.isfinite(faults.node_mtbf) else None
                ),
                "node_mttr": faults.node_mttr,
                "n_nodes": faults.n_nodes,
                "fail_prob": faults.fail_prob,
                "kill_prob": faults.kill_prob,
                "max_attempts": faults.max_attempts,
                "checkpoint_interval": faults.checkpoint_interval,
                "seed": faults.seed,
            },
        )

    def start_job(j: int, now: float) -> None:
        """Open an attempt of ``j``; ``n_live`` still counts ``j``."""
        nonlocal free, held, seq, usage_any
        c = cores_l[j]
        end = now + walltime_l[j]
        free -= c
        held += c
        exp_end_l[j] = end
        insort(running, (end, c))
        if faulty:
            # first-fit span assignment by node index
            spans: list[tuple[int, int]] = []
            need = c
            for node in range(n_nodes):
                nf = node_free[node]
                if nf > 0:
                    take = nf if nf < need else need
                    node_free[node] = nf - take
                    spans.append((node, take))
                    need -= take
                    if need == 0:
                        break
            spans_d[j] = spans
        if first_start_l[j] < 0:
            first_start_l[j] = now
        attempts_l[j] += 1
        gen_l[j] += 1
        running_f[j] = 1
        attempt_start_l[j] = now
        dur = remaining_l[j]
        fate = ATTEMPT_COMPLETED
        if has_intrinsic:
            u = float(rng_random())
            if u < kill_prob:
                fate = ATTEMPT_USER_KILLED
                dur *= float(rng_random())
            elif u < kf_prob:
                fate = ATTEMPT_FAILED
                dur *= float(rng_random())
        heappush(events, (now + dur, _P_FINISH, seq, (j, gen_l[j], fate)))
        seq += 1
        if track_usage:
            usage_vec[uinv_l[j]] += float(c) * float(walltime_l[j])
            usage_any = True
        if emit is not None:
            emit(
                ev.START,
                now,
                j,
                cores=c,
                free=free,
                queue=n_live,
                wait=float(now - submit_l[j]),
                attempt=attempts_l[j],
            )
        if mets:
            c_started.inc()
            h_wait.observe(now - submit_l[j])

    def release(j: int) -> None:
        """Return the units ``j``'s attempt holds (no state transition)."""
        nonlocal free, held
        c = cores_l[j]
        if faulty:
            for node, units in spans_d.pop(j):
                node_free[node] += units
        free += c
        held -= c
        del running[bisect_left(running, (exp_end_l[j], c))]

    def decay_usage(now: float) -> None:
        nonlocal usage_time
        if now > usage_time and usage_any:
            usage_vec_local = usage_vec
            usage_vec_local *= 0.5 ** ((now - usage_time) / half_life)
        usage_time = usage_time if usage_time > now else now

    def blocked_head(head: int, now: float, rest, rest_pos) -> None:
        """Reservation + one backfill pass over the ranked tail ``rest``.

        ``rest`` is ``None`` when no backfill can happen.  ``rest_pos``
        holds each candidate's buffer position relative to ``qhead`` so
        backfill starts can tombstone in place; ``None`` means ``rest`` is
        the buffer region right behind the head, tombstones included.
        ``n_live`` counts the head and every live job in ``rest`` (served
        heads are already removed) until the pass ends."""
        nonlocal free, n_live
        c_head = cores_l[head]
        if faulty and c_head > free + held:
            # bigger than everything currently healthy: no completion can
            # make room, only a repair — no reservation, no promise
            return
        acc = free
        shadow = now
        extra = 0
        for end, c in running:
            acc += c
            if acc >= c_head:
                shadow = end if end > now else now
                extra = acc - c_head
                break
        if not prom_f[head]:
            prom_f[head] = 1
            prom_np[head] = shadow
        if emit is not None:
            emit(
                ev.RESERVATION,
                now,
                head,
                shadow=float(shadow),
                extra=int(extra),
                queue=n_live,
                free=free,
            )
        if not bf_enabled or rest is None or not len(rest) or free == 0:
            return
        if fine:
            span = prof.span("backfill_scan").__enter__()
        cr = cores[rest]
        if rest_pos is None and len(rest) != n_live - 1:
            # tombstoned entries behind the head never fit
            cr[qdead_np[qhead + 1:qtail]] = capacity + 1
        if cr.min() > free:
            # every candidate is wider than the free cores: nothing starts
            if fine:
                span.__exit__(None, None, None)
            return
        frac = relax_fraction(n_live, observed_max_q)
        limit = shadow + frac * max(shadow - submit_l[head], 0.0)
        # vectorized prefilter + masked argmax scan, exactly as fast.py:
        # budgets only shrink during the scan and skipped candidates have
        # no side effects, so each step's mask over the remaining tail
        # finds the next candidate a per-candidate scan would start.
        # (`now + walltime <= limit` must stay in exactly this form — see
        # fast.py.)
        fits_w = now + walltime[rest] <= limit
        m = len(rest)
        i = 0
        started = 0
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
            c = cores_l[j]
            if emit is not None:
                emit(
                    ev.BACKFILL,
                    now,
                    j,
                    cores=c,
                    fits_window=bool(fits_w[p]),
                    fits_extra=c <= extra,
                    shadow=float(shadow),
                    limit=float(limit),
                )
            if mets:
                c_backfilled.inc()
            if not fits_w[p]:
                extra -= c
            start_job(j, now)
            backf_f[j] = 1
            qdead[qhead + (p + 1 if rest_pos is None else int(rest_pos[p]))] = 1
            started += 1
            i = p + 1
            if i >= m:
                break
        n_live -= started
        if fine:
            span.__exit__(None, None, None)

    def schedule(now: float) -> None:
        nonlocal observed_max_q, qhead, n_live
        if n_live > observed_max_q:
            observed_max_q = n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if track_usage:
            decay_usage(now)
        if not n_live:
            return
        if mode == "static":
            # the buffer is in rank order: serve heads until one blocks.
            # Amortized tombstone collection, as fast.py: a compaction
            # costs O(region) and runs only after ~n_live/4 removals
            # accumulated, so each backfill removal pays O(1) extra
            dead = (qtail - qhead) - n_live
            if dead > 64 and dead * 4 > n_live:
                compact()
            h = qhead
            tail = qtail
            while True:
                while h < tail and qdead[h]:
                    h += 1
                qhead = h
                if h == tail:
                    return
                head = int(qbuf[h])
                if cores_l[head] <= free:
                    start_job(head, now)
                    n_live -= 1
                    h += 1
                    continue
                blocked_head(
                    head, now,
                    qbuf[h + 1:tail] if bf_enabled and free and n_live > 1 else None,
                    None,
                )
                return
        if mode == "stateful":
            # usage (or a custom subclass's internal state) may move with
            # every served head: re-rank per serve
            while n_live:
                if (qtail - qhead) != n_live:
                    compact()
                if fine:
                    span = prof.span("policy_sort").__enter__()
                arr = qbuf[qhead:qtail]
                if track_usage:
                    order = policy.order(
                        submit[arr], cores[arr], walltime[arr], now,
                        user=users[arr], usage=usage_vec[uinv[arr]],
                    )
                else:
                    order = policy.order(
                        submit[arr], cores[arr], walltime[arr], now
                    )
                ranked = arr[order]
                if fine:
                    span.__exit__(None, None, None)
                head = int(ranked[0])
                if cores_l[head] <= free:
                    start_job(head, now)
                    qdead[qhead + int(order[0])] = 1
                    n_live -= 1
                    continue
                blocked_head(head, now, ranked[1:], order[1:])
                return
            return
        # dynamic: scores are frozen within the round, so one stable
        # lexsort over the entry-ordered live region equals the
        # serve-resort sequence, and the longest rank prefix whose
        # cumulative cores fit is exactly the set of heads served before
        # one blocks
        if (qtail - qhead) != n_live:
            compact()
        if fine:
            span = prof.span("policy_sort").__enter__()
        arr = qbuf[qhead:qtail]
        order = policy.order(submit[arr], cores[arr], walltime[arr], now)
        ranked = arr[order]
        if fine:
            span.__exit__(None, None, None)
        if cores_l[ranked[0]] > free:
            k = 0  # the head blocks: the usual round on a busy machine
        else:
            k = int(cores[ranked].cumsum().searchsorted(free, side="right"))
        if k:
            for j in ranked[:k].tolist():
                start_job(j, now)
                n_live -= 1
            qdead_np[qhead + order[:k]] = True
        if k == len(ranked):
            return
        blocked_head(int(ranked[k]), now, ranked[k + 1:], order[k + 1:])

    def close_attempt(j: int, t: float, outcome: int) -> float:
        """Log ``j``'s attempt as ended at ``t``; returns its elapsed time."""
        running_f[j] = 0
        st = attempt_start_l[j]
        elapsed = t - st
        att_job.append(j)
        att_start.append(st)
        att_elapsed.append(elapsed)
        att_outcome.append(outcome)
        return elapsed

    def retry(j: int, t: float, cause: str) -> None:
        """Queue ``j``'s resubmission after the backoff of its attempt."""
        nonlocal seq
        delay = backoff_base * backoff_factor ** (attempts_l[j] - 1)
        if emit is not None:
            emit(
                ev.RETRY,
                t,
                j,
                attempt=attempts_l[j],
                delay=float(delay),
                resume=float(t + delay),
                cause=cause,
            )
        if mets:
            c_retries.inc()
        heappush(events, (t + delay, _P_RESUBMIT, seq, j))
        seq += 1

    def kill_victims(t: float, victims: list[int]) -> None:
        """Close the node-killed attempts of ``victims`` and queue retries."""
        nonlocal unfinished
        for j in victims:
            gen_l[j] += 1  # invalidates the in-flight finish
            elapsed = close_attempt(j, t, ATTEMPT_NODE_KILLED)
            if ci:
                saved = math.floor(elapsed / ci) * ci
                remaining_l[j] -= saved
            if mets:
                h_attempt.observe(elapsed)
            if attempts_l[j] >= max_attempts:
                status_l[j] = _KILLED
                end_l[j] = t
                unfinished -= 1
                continue
            if emit is not None and ci and saved > 0:
                emit(
                    ev.CHECKPOINT,
                    t,
                    j,
                    saved=float(saved),
                    lost=float(elapsed - saved),
                )
            retry(j, t, "node_failure")

    now = float(submit_l[0])
    # root span encloses the whole event loop; left open on an exception so
    # Profiler.to_payload() serializes it as a partial tree
    root_span = prof.span(
        "simulate",
        engine="faults",
        policy=policy_name,
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()
    if mode == "static":
        # the one ranking a static run needs besides merges: its scores
        if fine:
            span = prof.span("policy_sort").__enter__()
        static_scores = policy.score(submit, cores, walltime, float(submit_l[0]))
        static_scores_l = static_scores.tolist()
        if fine:
            span.__exit__(None, None, None)
    while unfinished > 0:
        t_sub = submit_l[next_submit] if next_submit < n else _INF
        t_ev = events[0][0] if events else _INF
        now = t_sub if t_sub <= t_ev else t_ev
        assert now < _INF, "fault engine stalled with unfinished jobs"
        if mets:
            metrics.sample(now)
        if fine:
            span = prof.span("event_drain").__enter__()
        while events and events[0][0] <= now:
            t, prio, _s, payload = heappop(events)
            if prio == _P_FINISH:
                j, gen, fate = payload
                if not running_f[j] or gen_l[j] != gen:
                    continue  # stale: the attempt was killed earlier
                release(j)
                elapsed = close_attempt(j, t, fate)
                again = False
                if fate == ATTEMPT_COMPLETED:
                    status_l[j] = _PASSED
                    end_l[j] = t
                    unfinished -= 1
                elif fate == ATTEMPT_USER_KILLED:
                    status_l[j] = _KILLED
                    end_l[j] = t
                    unfinished -= 1
                else:
                    # intrinsic failure invalidates checkpoints
                    remaining_l[j] = full_runtime_l[j]
                    if attempts_l[j] < max_attempts:
                        again = True
                    else:
                        status_l[j] = _FAILED
                        end_l[j] = t
                        unfinished -= 1
                if emit is not None:
                    emit(
                        ev.FINISH,
                        t,
                        j,
                        cores=cores_l[j],
                        free=free,
                        outcome=_OUTCOME_LABELS[fate],
                        attempt=attempts_l[j],
                        terminal=not again,
                    )
                if mets:
                    c_finished.inc()
                    h_attempt.observe(elapsed)
                if again:
                    retry(j, t, "intrinsic_failure")
            elif prio == _P_FAIL:
                node = payload
                victims: list[int] = []
                if not down[node]:
                    # victims in span-table (= attempt start) order, each
                    # released before the node drops
                    victims = [
                        j
                        for j, spans in spans_d.items()
                        if any(nd == node for nd, _u in spans)
                    ]
                    for j in victims:
                        release(j)
                    down[node] = 1
                    free -= node_free[node]
                    node_free[node] = 0
                if emit is not None:
                    emit(ev.NODE_FAIL, t, node=node, victims=victims, free=free)
                if mets:
                    c_node_fail.inc()
                kill_victims(t, victims)
                fail_t.append(t)
                fail_n.append(node)
                heappush(
                    events,
                    (t + rng_exponential(faults.node_mttr), _P_REPAIR, seq, node),
                )
                seq += 1
            elif prio == _P_REPAIR:
                node = payload
                if down[node]:
                    down[node] = 0
                    node_free[node] = node_size[node]
                    free += node_size[node]
                repair_t.append(t)
                if emit is not None:
                    emit(ev.NODE_REPAIR, t, node=node, free=free)
                if mets:
                    c_node_repair.inc()
                heappush(
                    events,
                    (t + rng_exponential(faults.node_mtbf), _P_FAIL, seq, node),
                )
                seq += 1
            else:  # _P_RESUBMIT: the job re-enters the queue at the back
                requeue(payload)
                if emit is not None:
                    emit(
                        ev.SUBMIT,
                        t,
                        payload,
                        submitted=float(t),
                        cores=cores_l[payload],
                        queue=n_live,
                        user=users_l[payload],
                        resubmitted=True,
                    )
                if mets:
                    c_submitted.inc()
        if next_submit < n and t_sub <= now:
            hi = bisect_right(submit_l, now, next_submit)
            enqueue(next_submit, hi)
            if emit is not None:
                # queue depth is reported *after* each insertion
                depth = n_live - (hi - next_submit)
                for j in range(next_submit, hi):
                    depth += 1
                    emit(
                        ev.SUBMIT,
                        now,
                        j,
                        submitted=submit_l[j],
                        cores=cores_l[j],
                        queue=depth,
                        user=users_l[j],
                    )
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

    assert not n_live and min(status_l) >= 0, "jobs left non-terminal"
    result = FaultSimResult(
        workload=workload,
        capacity=capacity,
        faults=faults,
        start=np.asarray(first_start_l, dtype=np.float64),
        end=np.asarray(end_l, dtype=np.float64),
        status=np.asarray(status_l, dtype=np.int64),
        attempts=np.asarray(attempts_l, dtype=np.int64),
        promised=prom_np,
        backfilled=np.frombuffer(bytes(backf_f), dtype=np.uint8).astype(bool),
        attempt_job=np.asarray(att_job, dtype=np.int64),
        attempt_start=np.asarray(att_start, dtype=np.float64),
        attempt_elapsed=np.asarray(att_elapsed, dtype=np.float64),
        attempt_outcome=np.asarray(att_outcome, dtype=np.int64),
        node_fail_times=np.asarray(fail_t, dtype=np.float64),
        node_fail_nodes=np.asarray(fail_n, dtype=np.int64),
        node_repair_times=np.asarray(repair_t, dtype=np.float64),
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    if emit is not None:
        emit(
            ev.RUN_END,
            now,
            makespan=float(result.makespan),
            completed=int(result.completed.sum()),
            node_failures=len(fail_t),
        )
    return result
