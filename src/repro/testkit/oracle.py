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
* **Queue order.**  Jobs are ranked by ``(policy score, submit time, job
  index)`` — the tie-break rule documented on
  :meth:`repro.sched.policies.Policy.order`.  The scores (lower = served
  first) are listed in :data:`ORACLE_POLICIES`; ``wfp3``/``unicef`` read
  the clock, and ``fairshare`` reads per-user usage (next bullet).
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
"""

from __future__ import annotations

import math

import numpy as np

from ..sched.backfill import EASY, BackfillConfig
from ..sched.engine import USAGE_EPS, SimResult
from ..sched.job import SimWorkload

__all__ = ["oracle_simulate", "ORACLE_POLICIES"]

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
    """Queue order: (score, submit, job index), exactly the engines' rule.

    ``pending`` is in ascending index order, so the score array lines up
    with it position by position.
    """
    idx = np.array(pending, dtype=np.int64)
    if policy == "fairshare":
        score = [usage.get(int(u), 0.0) for u in workload.user[idx]]
    else:
        score = ORACLE_POLICIES[policy](
            workload.submit[idx], workload.cores[idx], workload.walltime[idx], now
        )
    key = {j: (score[i], workload.submit[j], j) for i, j in enumerate(pending)}
    return sorted(pending, key=key.__getitem__)


def _free_cores(running: list[int], cores: np.ndarray, capacity: int) -> int:
    """Free capacity recomputed from scratch (no ledger to trust)."""
    return capacity - sum(int(cores[j]) for j in running)


def _reservation(
    head: int,
    now: float,
    running: list[int],
    expected_end: dict[int, float],
    cores: np.ndarray,
    capacity: int,
) -> tuple[float, int]:
    """EASY reservation for a blocked head: ``(shadow time, extra cores)``.

    Walk running jobs in ``(expected end, cores)`` order, accumulating the
    cores each completion frees, until the head fits.  ``extra`` counts
    only the completions *needed* to reach the shadow time — further jobs
    ending at the same instant are not credited, matching the engine's
    walk of its sorted running table.
    """
    need = int(cores[head])
    free = _free_cores(running, cores, capacity)
    if need <= free:
        return now, free - need
    for end, c in sorted((expected_end[j], int(cores[j])) for j in running):
        free += c
        if free >= need:
            return max(end, now), free - need
    raise RuntimeError(f"reservation impossible: {need} exceeds {capacity}")


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
                head, now, running, expected_end, cores, capacity
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
