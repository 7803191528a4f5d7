"""Deliberately simple reference scheduler for differential testing.

The production engines (:func:`repro.sched.simulate`,
:func:`repro.sched.simulate_conservative`) are built for speed: a finish
heap, an incremental free-core ledger, a lazily sorted running table, a
capacity profile rebuilt from flat breakpoint lists each round.  Every one
of those optimizations is a place for a bug to hide.  This module
re-implements the *same scheduling semantics* with none of them:

* no heap — the next completion is found by scanning every running job;
* no free-core ledger — free capacity is recomputed from scratch as
  ``capacity - sum(cores of running jobs)`` at every decision;
* no capacity profile — conservative backfilling re-checks candidate start
  times against the full reservation list, boundary by boundary;
* no NumPy ordering tricks — the queue is ranked with a plain
  ``sorted(...)`` on an explicit key tuple.

The point is an *obviously correct* O(n²) oracle: slow enough that you can
read it top to bottom, rich enough that :mod:`repro.testkit.fuzz` can demand
bit-identical start times from the optimized engines on randomized
workloads.

Scheduling specification (shared with the engines)
--------------------------------------------------

The semantics both the engines and this oracle implement:

* **Events.**  Time advances only to job submissions and job completions.
  At each instant, completions are processed before submissions, then the
  scheduler runs once.
* **Queue order.**  Jobs are ranked by ``(policy score, submit time,
  queue-entry order)`` — the tie-break rule documented on
  :meth:`repro.sched.policies.Policy.order`.  Without faults a job enters
  the queue once, at submission, in index order, so entry order is job
  index order.  The scores (lower = served first) are listed in
  :data:`ORACLE_POLICIES`; ``wfp3``/``unicef`` read the clock, and
  ``fairshare`` reads per-user usage (next bullet).
* **Fair share** (EASY engine).  When a job starts, its user is credited
  ``cores × walltime`` core-seconds.  At every scheduling instant, before
  anything is ranked, every user's usage decays by ``0.5 ** (Δt /
  half_life)`` (Δt since the previous instant); an entry that falls below
  :data:`~repro.sched.engine.USAGE_EPS` is dropped and reads back as 0.0.
  The queue is ranked by ``(usage, submit, index)``, re-ranked after each
  head start because the start moved its user's usage.
* **EASY engine.**  Serve the ranked queue head while it fits.  When the
  head blocks, promise it the *shadow time* (earliest instant enough cores
  free, assuming running jobs end at their walltime-derived expected ends,
  walked in ``(expected end, cores)`` order) and remember the ``extra``
  cores spare at that instant.  Then make one backfill pass over the
  remaining ranked queue: a job may jump the head if it fits in free cores
  now **and** either ends by the (possibly relaxed) shadow limit or fits
  inside ``extra``; extra-fitters consume their cores from ``extra``,
  window-fitters do not.
* **Conservative engine.**  Every round, rebuild the future-availability
  plan from running jobs' expected ends, then give every queued job (in
  ranked order) the earliest reservation that fits its walltime without
  moving any earlier reservation; jobs whose reservation is *now* start
  immediately.
* **Walltime semantics.**  Expected ends use the requested walltime;
  actual completions use the true runtime (``walltime >= runtime`` is a
  :class:`~repro.sched.job.SimWorkload` invariant).  Zero-walltime
  reservations occupy no time (half-open intervals).

Fault specification
-------------------

:func:`oracle_simulate_with_faults` is the counterpart of
:func:`repro.sched.simulate_with_faults`, written from the fault model of
``docs/RESILIENCE.md``.  On top of the EASY rules above:

* **Nodes.**  With node faults on, capacity is split over
  ``min(n_nodes, capacity)`` nodes as evenly as possible, the first nodes
  taking the remainder.  Without node faults the machine is one node that
  never fails.  Free capacity is the unheld units of the up nodes.
* **Pinning.**  A starting attempt takes its units first-fit: from each
  node in index order, as many free units as it still needs.
* **Failure process.**  Every node draws its first time to failure at
  the first submission.  A failure kills every attempt holding units on
  the node, in the order those attempts started, and takes the node down
  with nothing on it; it then draws the node's repair delay.  A repair
  brings the node back empty and draws its next time to failure.
* **Attempts.**  Each attempt runs for the job's remaining work, and
  walltime-based expected ends count from the attempt's start.  With
  intrinsic faults on, the attempt draws a fate uniform ``u``: below
  ``kill_prob`` the user kills it, below ``kill_prob + fail_prob`` it
  fails, otherwise it completes; a killed or failed attempt then draws
  the fraction of its duration it runs.  A user kill is terminal.  A
  failure resets the remaining work to the full runtime.  A node kill
  keeps the completed checkpoints: ``floor(elapsed / interval) *
  interval`` seconds of work.  A failed or node-killed job with attempts
  left re-enters the queue, at the back, ``backoff_base * backoff_factor
  ** (attempts - 1)`` seconds later; otherwise it ends FAILED or KILLED.
* **Events.**  Time advances to the earliest submission or timer.  At
  one instant, due timers run one at a time in the order attempt end <
  node failure < node repair < resubmission, then creation order; a timer
  created for the current instant runs in the same pass.  Submissions
  follow, then one scheduling pass.  A node kill leaves the attempt's end
  timer in place: when it comes due it does nothing, but its instant is
  still a scheduling instant.
* **Randomness.**  One generator seeded with ``faults.seed``, drawn in
  the order: node times to failure up front, a fate uniform (plus a
  fraction uniform) at each attempt start, one repair delay per failure,
  one time to failure per repair.
* **Degraded hold.**  When the blocked head needs more units than are
  free plus held by running attempts, only a repair can make room: the
  head gets no promise and nothing backfills.
* **Fair share** as above, credited at every attempt start, with usage
  decayed but never pruned.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from ..sched.backfill import EASY, BackfillConfig
from ..sched.engine import USAGE_EPS, SimResult
from ..sched.faults import (
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_NODE_KILLED,
    ATTEMPT_USER_KILLED,
    NO_FAULTS,
    FaultConfig,
    FaultSimResult,
)
from ..sched.job import SimWorkload
from ..traces.schema import JobStatus

__all__ = ["oracle_simulate", "oracle_simulate_with_faults", "ORACLE_POLICIES"]

#: fair-share usage half-life (the ``fairshare`` policy's 24 hours)
FAIRSHARE_HALF_LIFE_S = 24.0 * 3600.0


def _wait(submit, now):
    return np.maximum(now - submit, 0.0)


#: policy name -> score function over the pending jobs' arrays (lower =
#: served first).  The oracle keeps its own table instead of importing the
#: production policies so a scoring bug there cannot cancel out in the
#: comparison.  Scores are NumPy ufuncs over the whole pending set, as the
#: engines evaluate them, so ``log2``/``log10``/``**`` round identically.
ORACLE_POLICIES = {
    # first come, first served
    "fcfs": lambda submit, cores, walltime, now: submit,
    # shortest requested walltime first
    "sjf": lambda submit, cores, walltime, now: walltime,
    # longest requested walltime first
    "ljf": lambda submit, cores, walltime, now: -walltime,
    # fewest cores first
    "smallest": lambda submit, cores, walltime, now: cores.astype(float),
    # most cores first
    "largest": lambda submit, cores, walltime, now: -cores.astype(float),
    # WFP3: highest (wait / walltime)^3 * cores first, walltime floored at 1 s
    "wfp3": lambda submit, cores, walltime, now: (
        -((_wait(submit, now) / np.maximum(walltime, 1.0)) ** 3) * cores
    ),
    # UNICEF: highest wait / (log2(cores) * walltime) first, cores floored
    # at 2 and walltime at 1 s
    "unicef": lambda submit, cores, walltime, now: (
        -_wait(submit, now)
        / (np.log2(np.maximum(cores, 2.0)) * np.maximum(walltime, 1.0))
    ),
    # F1: lowest log10(walltime) * cores + 870 * log10(submit) first,
    # both logs floored at 1
    "f1": lambda submit, cores, walltime, now: (
        np.log10(np.maximum(walltime, 1.0)) * cores
        + 8.70e2 * np.log10(np.maximum(submit, 1.0))
    ),
    # fair share: least decayed usage of the job's user first; the score
    # is filled in by _rank from the usage table
    "fairshare": None,
}


def _rank(
    pending: list[int],
    workload: SimWorkload,
    policy: str,
    now: float,
    usage: dict[int, float],
) -> list[int]:
    """Queue order: (score, submit, queue-entry order), exactly the
    engines' rule.  ``pending`` is in queue-entry order."""
    if len(pending) == 1:
        return list(pending)
    idx = np.array(pending, dtype=np.int64)
    submit = workload.submit[idx]
    if policy == "fairshare":
        score = [usage.get(u, 0.0) for u in workload.user[idx].tolist()]
    else:
        score = ORACLE_POLICIES[policy](
            submit, workload.cores[idx], workload.walltime[idx], now
        ).tolist()
    keys = zip(score, submit.tolist(), range(len(pending)))
    return [pending[i] for _score, _submit, i in sorted(keys)]


def _free_cores(running: list[int], cores: np.ndarray, capacity: int) -> int:
    """Free capacity recomputed from scratch (no ledger to trust)."""
    return capacity - sum(int(cores[j]) for j in running)


def _reservation(
    head: int,
    now: float,
    running: list[int],
    expected_end: dict[int, float],
    cores: np.ndarray,
    free: int,
) -> tuple[float, int]:
    """EASY reservation for a blocked head: ``(shadow time, extra cores)``.

    Walk running jobs in ``(expected end, cores)`` order, accumulating the
    cores each completion frees on top of the ``free`` ones, until the
    head fits.  ``extra`` counts only the completions *needed* to reach
    the shadow time — further jobs ending at the same instant are not
    credited, matching the engine's walk of its sorted running table.
    """
    need = int(cores[head])
    if need <= free:
        return now, free - need
    for end, c in sorted((expected_end[j], int(cores[j])) for j in running):
        free += c
        if free >= need:
            return max(end, now), free - need
    raise RuntimeError(f"reservation impossible: {need} cores never free up")


def _plan_free_at(
    t: float, plan: list[tuple[float, float, int]], capacity: int
) -> int:
    """Free cores at instant ``t`` under the committed plan (half-open)."""
    return capacity - sum(c for s, e, c in plan if s <= t < e)


def _earliest_fit(
    plan: list[tuple[float, float, int]],
    need: int,
    duration: float,
    now: float,
    capacity: int,
) -> float:
    """Earliest start >= ``now`` where ``need`` cores stay free for
    ``duration`` against every commitment in ``plan``.

    Candidate starts are ``now`` and every commitment boundary; a window is
    feasible when the free capacity at its start and at every boundary
    inside it covers the request.  Checked exhaustively in time order —
    O(boundaries²), which is the whole point.
    """
    boundaries = sorted({t for s, e, _ in plan for t in (s, e)})
    for t in [now] + [b for b in boundaries if b > now]:
        if _plan_free_at(t, plan, capacity) < need:
            continue
        if all(
            _plan_free_at(b, plan, capacity) >= need
            for b in boundaries
            if t < b < t + duration
        ):
            return t
    raise RuntimeError("plan never frees enough capacity")


def oracle_simulate(
    workload: SimWorkload,
    capacity: int,
    policy: str = "fcfs",
    backfill: BackfillConfig = EASY,
    engine: str = "easy",
    track_queue: bool = False,
) -> SimResult:
    """Schedule ``workload`` with the reference algorithm.

    Parameters mirror the production entry points: ``engine="easy"`` is the
    counterpart of :func:`repro.sched.simulate` (honouring any
    :class:`~repro.sched.BackfillConfig`, including disabled backfilling
    and the relaxed/adaptive modes), ``engine="conservative"`` the
    counterpart of :func:`repro.sched.simulate_conservative` (which takes
    no backfill config).  ``track_queue`` records the queue length and
    time at every scheduling instant, as the engines do.  Returns a
    regular :class:`SimResult` so the invariant library and metrics apply
    unchanged.  Fair-share usage is tracked on the EASY engine only; the
    conservative engine ranks ``fairshare`` with every usage at 0.0, that
    is first come, first served.
    """
    if policy not in ORACLE_POLICIES:
        raise KeyError(
            f"oracle knows policies {sorted(ORACLE_POLICIES)}, not {policy!r}"
        )
    if engine not in ("easy", "conservative"):
        raise ValueError(f"engine must be 'easy' or 'conservative', not {engine!r}")
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    if int(workload.cores.max()) > capacity:
        raise ValueError("job larger than cluster capacity")

    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime
    runtime = workload.runtime
    fairshare = policy == "fairshare" and engine == "easy"

    start = np.full(n, -1.0)
    promised = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)

    pending: list[int] = []  # submitted, not yet started (ascending index)
    running: list[int] = []  # started, not yet finished
    expected_end: dict[int, float] = {}  # walltime-derived end per running job
    next_submit = 0
    observed_max_q = 0
    queue_samples: list[int] = []
    queue_sample_times: list[float] = []
    usage: dict[int, float] = {}  # fair share: user -> decayed core-seconds
    usage_time = float(submit[0])  # the instant usage was last decayed to

    def start_job(j: int, now: float) -> None:
        start[j] = now
        running.append(j)
        expected_end[j] = now + walltime[j]
        if fairshare:
            u = int(workload.user[j])
            usage[u] = usage.get(u, 0.0) + float(cores[j]) * float(walltime[j])

    def decay_usage(now: float) -> None:
        nonlocal usage_time
        if now > usage_time:
            factor = 0.5 ** ((now - usage_time) / FAIRSHARE_HALF_LIFE_S)
            for u in list(usage):
                usage[u] *= factor
                if usage[u] < USAGE_EPS:
                    del usage[u]
            usage_time = now

    def schedule_easy(now: float) -> None:
        nonlocal observed_max_q
        observed_max_q = max(observed_max_q, len(pending))
        if fairshare:
            decay_usage(now)
        while pending:
            # re-ranked every pass: a head start moves fair-share usage
            ranked = _rank(pending, workload, policy, now, usage)
            head = ranked[0]
            if int(cores[head]) <= _free_cores(running, cores, capacity):
                start_job(head, now)
                pending.remove(head)
                continue
            shadow, extra = _reservation(
                head, now, running, expected_end, cores,
                _free_cores(running, cores, capacity),
            )
            if math.isnan(promised[head]):
                promised[head] = shadow
            if backfill.enabled:
                frac = backfill.relax_fraction(len(pending), observed_max_q)
                limit = shadow + frac * max(shadow - submit[head], 0.0)
                started: list[int] = []
                for j in ranked[1:]:
                    if int(cores[j]) > _free_cores(running, cores, capacity):
                        continue
                    fits_window = now + walltime[j] <= limit
                    fits_extra = int(cores[j]) <= extra
                    if fits_window or fits_extra:
                        start_job(j, now)
                        backfilled[j] = True
                        started.append(j)
                        if not fits_window:
                            extra -= int(cores[j])
                        if _free_cores(running, cores, capacity) == 0:
                            break
                for j in started:
                    pending.remove(j)
            break

    def schedule_conservative(now: float) -> None:
        if not pending:
            return
        # the plan starts from running jobs' remaining walltime holds ...
        plan = [
            (now, max(expected_end[j], now), int(cores[j])) for j in running
        ]
        started: list[int] = []
        # ... then every queued job, in ranked order, commits the earliest
        # window that does not move an earlier commitment
        for j in _rank(pending, workload, policy, now, usage):
            t0 = _earliest_fit(plan, int(cores[j]), float(walltime[j]), now, capacity)
            plan.append((t0, t0 + float(walltime[j]), int(cores[j])))
            if math.isnan(promised[j]):
                promised[j] = t0
            if t0 <= now:
                start_job(j, now)
                started.append(j)
        for j in started:
            pending.remove(j)

    schedule = schedule_easy if engine == "easy" else schedule_conservative

    while next_submit < n or running:
        t_sub = submit[next_submit] if next_submit < n else math.inf
        t_fin = min(
            (start[j] + runtime[j] for j in running), default=math.inf
        )
        now = min(t_sub, t_fin)
        for j in [j for j in running if start[j] + runtime[j] <= now]:
            running.remove(j)
            del expected_end[j]
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            next_submit += 1
        if track_queue:
            queue_samples.append(len(pending))
            queue_sample_times.append(now)
        schedule(now)

    assert not pending and np.all(start >= 0), "oracle left jobs unserved"
    return SimResult(
        workload=workload,
        capacity=capacity,
        start=start,
        promised=promised,
        backfilled=backfilled if engine == "easy" else np.array([], dtype=bool),
        queue_samples=np.asarray(queue_samples, dtype=np.int64),
        queue_sample_times=np.asarray(queue_sample_times, dtype=np.float64),
    )


# timer kinds, in the order due timers run at one instant
_ATTEMPT_END, _NODE_FAIL, _NODE_REPAIR, _RESUBMIT = 0, 1, 2, 3


def oracle_simulate_with_faults(
    workload: SimWorkload,
    capacity: int,
    policy: str = "fcfs",
    backfill: BackfillConfig = EASY,
    faults: FaultConfig = NO_FAULTS,
    track_queue: bool = False,
) -> FaultSimResult:
    """Schedule ``workload`` on a failing machine with the reference
    algorithm (the fault specification in the module docstring).

    The counterpart of :func:`repro.sched.simulate_with_faults` on an
    already clipped workload: no timer heap (the next timer is the minimum
    of a plain list), no free-unit ledger (occupancy is recomputed from
    the running attempts at every decision), no generation counters (a
    killed attempt's end timer finds its attempt gone).  After every timer
    and every start it asserts from that recomputed state that no node
    holds more than its size, a down node holds nothing and free capacity
    is never negative.
    """
    if policy not in ORACLE_POLICIES:
        raise KeyError(
            f"oracle knows policies {sorted(ORACLE_POLICIES)}, not {policy!r}"
        )
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    if int(workload.cores.max()) > capacity:
        raise ValueError("job larger than cluster capacity")

    submit = workload.submit.tolist()
    cores = workload.cores.tolist()
    walltime = workload.walltime.tolist()
    runtime = workload.runtime.tolist()
    user = workload.user.tolist()
    fairshare = policy == "fairshare"
    rng = np.random.default_rng(faults.seed)

    if faults.has_node_faults:
        n_nodes = max(min(int(faults.n_nodes), int(capacity)), 1)
        base, rest = divmod(int(capacity), n_nodes)
        node_size = [base + (1 if i < rest else 0) for i in range(n_nodes)]
    else:
        node_size = [int(capacity)]
    up = [True] * len(node_size)

    remaining = list(runtime)
    attempts = [0] * n
    attempt_start = [math.nan] * n
    first_start = [-1.0] * n
    status = [-1] * n
    end = [math.nan] * n
    promised = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)
    log: list[tuple[int, float, float, int]] = []  # (job, start, elapsed, outcome)
    fail_log: list[tuple[float, int]] = []
    repair_log: list[float] = []

    pending: list[int] = []  # queued jobs, in queue-entry order
    running: list[int] = []  # jobs with a live attempt, in attempt-start order
    spans: dict[int, list[tuple[int, int]]] = {}  # job -> [(node, units)]
    expected_end: dict[int, float] = {}
    timers: list[tuple[float, int, int, object]] = []  # (t, kind, created, payload)
    created = 0
    next_submit = 0
    observed_max_q = 0
    queue_samples: list[int] = []
    queue_sample_times: list[float] = []
    usage: dict[int, float] = {}
    usage_time = submit[0]

    def add_timer(t: float, kind: int, payload) -> None:
        nonlocal created
        timers.append((t, kind, created, payload))
        created += 1

    def node_used() -> list[int]:
        used = [0] * len(node_size)
        for j in running:
            for node, units in spans[j]:
                used[node] += units
        return used

    def free_units() -> int:
        """Unheld units of the up nodes (a down node holds nothing)."""
        return sum(compress(node_size, up)) - sum(map(cores.__getitem__, running))

    def check_state() -> None:
        used = node_used()
        for node, (size, u, ok) in enumerate(zip(node_size, used, up)):
            assert u <= size, f"node {node} holds {u} > {size}"
            assert ok or u == 0, f"down node {node} holds units"
        free = sum(compress(node_size, up)) - sum(compress(used, up))
        assert free >= 0, "negative free capacity"

    def start_attempt(j: int, now: float) -> None:
        if first_start[j] < 0:
            first_start[j] = now
        attempts[j] += 1
        attempt_start[j] = now
        duration, fate = remaining[j], ATTEMPT_COMPLETED
        if faults.has_intrinsic_faults:
            u = float(rng.random())
            if u < faults.kill_prob:
                fate = ATTEMPT_USER_KILLED
            elif u < faults.kill_prob + faults.fail_prob:
                fate = ATTEMPT_FAILED
            if fate != ATTEMPT_COMPLETED:
                duration *= float(rng.random())
        # first-fit pinning over the nodes' unheld units
        need, taken = cores[j], []
        for node, used in enumerate(node_used()):
            take = min(node_size[node] - used if up[node] else 0, need)
            if take > 0:
                taken.append((node, take))
                need -= take
        assert need == 0, f"job {j} started without room"
        running.append(j)
        spans[j] = taken
        expected_end[j] = now + walltime[j]
        add_timer(now + duration, _ATTEMPT_END, (j, attempts[j], fate))
        if fairshare:
            usage[user[j]] = usage.get(user[j], 0.0) + float(cores[j]) * walltime[j]
        check_state()

    def stop_attempt(j: int, t: float, outcome: int) -> None:
        running.remove(j)
        del spans[j], expected_end[j]
        log.append((j, attempt_start[j], t - attempt_start[j], outcome))

    def retry_or_end(j: int, t: float, code: JobStatus) -> None:
        if attempts[j] < faults.max_attempts:
            delay = faults.backoff_base * faults.backoff_factor ** (attempts[j] - 1)
            add_timer(t + delay, _RESUBMIT, j)
        else:
            status[j], end[j] = int(code), t

    def run_timer(t: float, kind: int, payload) -> None:
        if kind == _ATTEMPT_END:
            j, attempt, fate = payload
            if j not in running or attempts[j] != attempt:
                return  # a node killed this attempt: the timer only wakes
            stop_attempt(j, t, fate)
            if fate == ATTEMPT_COMPLETED:
                status[j], end[j] = int(JobStatus.PASSED), t
            elif fate == ATTEMPT_USER_KILLED:
                status[j], end[j] = int(JobStatus.KILLED), t
            else:
                remaining[j] = runtime[j]  # a wrong computation has no checkpoints
                retry_or_end(j, t, JobStatus.FAILED)
        elif kind == _NODE_FAIL:
            node = payload
            victims = [j for j in running if any(nd == node for nd, _ in spans[j])]
            for j in victims:
                elapsed = t - attempt_start[j]
                stop_attempt(j, t, ATTEMPT_NODE_KILLED)
                ci = faults.checkpoint_interval
                if ci:
                    remaining[j] -= math.floor(elapsed / ci) * ci
                retry_or_end(j, t, JobStatus.KILLED)
            up[node] = False
            fail_log.append((t, node))
            add_timer(t + rng.exponential(faults.node_mttr), _NODE_REPAIR, node)
        elif kind == _NODE_REPAIR:
            up[payload] = True
            repair_log.append(t)
            add_timer(t + rng.exponential(faults.node_mtbf), _NODE_FAIL, payload)
        else:
            pending.append(payload)  # a retry re-enters at the back
        check_state()

    def schedule(now: float) -> None:
        nonlocal observed_max_q, usage_time
        observed_max_q = max(observed_max_q, len(pending))
        if track_queue:
            queue_samples.append(len(pending))
            queue_sample_times.append(now)
        if fairshare and now > usage_time:
            factor = 0.5 ** ((now - usage_time) / FAIRSHARE_HALF_LIFE_S)
            for u in usage:
                usage[u] *= factor
            usage_time = now
        while pending:
            ranked = _rank(pending, workload, policy, now, usage)
            head = ranked[0]
            free = free_units()
            if cores[head] <= free:
                start_attempt(head, now)
                pending.remove(head)
                continue
            if cores[head] > free + sum(cores[j] for j in running):
                break  # degraded hold: only a repair can make room
            shadow, extra = _reservation(
                head, now, running, expected_end, cores, free
            )
            if math.isnan(promised[head]):
                promised[head] = shadow
            if backfill.enabled:
                frac = backfill.relax_fraction(len(pending), observed_max_q)
                limit = shadow + frac * max(shadow - submit[head], 0.0)
                started: list[int] = []
                for j in ranked[1:]:
                    if cores[j] > free:
                        continue
                    fits_window = now + walltime[j] <= limit
                    fits_extra = cores[j] <= extra
                    if fits_window or fits_extra:
                        start_attempt(j, now)
                        backfilled[j] = True
                        started.append(j)
                        if not fits_window:
                            extra -= cores[j]
                        free = free_units()
                        if free == 0:
                            break
                for j in started:
                    pending.remove(j)
            break

    if faults.has_node_faults:
        for node in range(len(node_size)):
            add_timer(submit[0] + rng.exponential(faults.node_mtbf), _NODE_FAIL, node)
    while -1 in status:  # some job is not terminal yet
        now = min(timers)[0] if timers else math.inf
        if next_submit < n and submit[next_submit] < now:
            now = submit[next_submit]
        assert now < math.inf, "oracle stalled with unfinished jobs"
        while timers:
            timer = min(timers)
            if timer[0] > now:
                break
            timers.remove(timer)
            run_timer(timer[0], timer[1], timer[3])
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            next_submit += 1
        schedule(now)

    assert not pending, "oracle left jobs queued"
    job, att_start, elapsed, outcome = zip(*log)
    return FaultSimResult(
        workload=workload,
        capacity=capacity,
        faults=faults,
        start=first_start,
        end=end,
        status=status,
        attempts=attempts,
        promised=promised,
        backfilled=backfilled,
        attempt_job=job,
        attempt_start=att_start,
        attempt_elapsed=elapsed,
        attempt_outcome=outcome,
        node_fail_times=[t for t, _ in fail_log],
        node_fail_nodes=[node for _, node in fail_log],
        node_repair_times=repair_log,
        queue_samples=queue_samples,
        queue_sample_times=queue_sample_times,
    )
