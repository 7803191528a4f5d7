#!/usr/bin/env python3
"""Chaos smoke: prove sweeps survive crashes, retries and interruption.

The crash-safety acceptance test run by CI (and runnable by hand):

1. **Clean baseline** — a small policy sweep run serially.
2. **Chaos run** — the same sweep with 30% injected worker crashes and
   20% transient errors (the first chaos seed that faults some first
   attempt and lets every cell heal), healed by the supervised pool's
   seeded retries; its results must be **bit-identical** to the baseline.
3. **Kill + resume** — the sweep is aborted partway (simulating a
   SIGKILL mid-campaign), then resumed from its journal; the resume must
   recompute **zero** already-completed cells and again match the
   baseline bit for bit.

Run:  PYTHONPATH=src python examples/chaos_smoke.py [--jobs N]

Exits non-zero (via assert) if any property fails; see
``docs/PARALLELISM.md`` ("Crash-safe sweeps") and ``tests/test_chaos.py``
for the full property suite.
"""

import argparse
import sys
import time

from repro.obs.runs import ProgressReporter
from repro.runner import (
    FailureReport,
    RetryPolicy,
    SimTask,
    SweepJournal,
    SweepStats,
    WorkloadSpec,
    run_sweep,
)
from repro.testkit import ChaosConfig

POLICIES = ("fcfs", "sjf", "f1", "wfp3")


def build_tasks(days: float, seed: int, max_jobs: int) -> list[SimTask]:
    return [
        SimTask(
            label=policy,
            workload=WorkloadSpec(
                system="theta", days=days, seed=seed, max_jobs=max_jobs
            ),
            policy=policy,
        )
        for policy in POLICIES
    ]


class _AbortMidSweep(BaseException):
    """Raised from a progress hook to simulate a kill mid-campaign."""


class _AbortAfter(ProgressReporter):
    enabled = True

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def task_done(self, record, done, total) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise _AbortMidSweep()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-jobs", type=int, default=400)
    parser.add_argument(
        "--journal", default="/tmp/chaos-smoke-journal.jsonl",
        help="journal path for the kill/resume phase (removed first)",
    )
    args = parser.parse_args(argv)

    import os

    if os.path.exists(args.journal):
        os.remove(args.journal)

    tasks = build_tasks(args.days, args.seed, args.max_jobs)

    # 1. clean serial baseline ------------------------------------------------
    t0 = time.perf_counter()
    baseline = run_sweep(tasks, jobs=1)
    base_s = time.perf_counter() - t0
    print(f"baseline: {len(tasks)} cells in {base_s:.1f}s (serial, no chaos)")

    # 2. chaos + retries => bit-identical ------------------------------------
    # fingerprints hash code_version(), so any engine edit reshuffles the
    # chaos draws: take the first seed that faults at least one first
    # attempt and still gives every cell a clean attempt within the budget
    retry = RetryPolicy(max_attempts=8, backoff_base=0.0)
    fingerprints = [t.fingerprint() for t in tasks]
    chaos = next(
        cfg
        for seed in range(64)
        for cfg in (ChaosConfig(crash_p=0.3, error_p=0.2, seed=seed),)
        if any(cfg.fault_for(fp, 1) for fp in fingerprints)
        and all(
            any(
                cfg.fault_for(fp, attempt) is None
                for attempt in range(1, retry.max_attempts + 1)
            )
            for fp in fingerprints
        )
    )
    faulty_first_attempts = sum(
        chaos.fault_for(fp, 1) is not None for fp in fingerprints
    )
    report = FailureReport()
    stats = SweepStats()
    healed = run_sweep(
        tasks,
        jobs=args.jobs,
        chaos=chaos,
        on_error="retry",
        retry=retry,
        failures_out=report,
        stats_out=stats,
    )
    assert report.ok, f"cells failed terminally: {report.summary()}"
    assert [r.payload() for r in healed] == [r.payload() for r in baseline], (
        "chaos-healed results are NOT bit-identical to the clean baseline"
    )
    print(
        f"chaos:    {faulty_first_attempts} first attempts faulted, "
        f"{report.n_retried} attempt(s) retried, results bit-identical"
    )

    # 3. kill mid-sweep, then resume from the journal -------------------------
    killed_after = len(tasks) // 2
    try:
        run_sweep(
            tasks,
            jobs=1,
            journal=args.journal,
            progress=_AbortAfter(killed_after),
        )
    except _AbortMidSweep:
        pass
    else:
        raise AssertionError("the abort hook never fired")

    completed = SweepJournal(args.journal).completed()
    assert len(completed) == killed_after, (
        f"journal holds {len(completed)} cells, expected {killed_after}"
    )

    t0 = time.perf_counter()
    resume_stats = SweepStats()
    resumed = run_sweep(
        tasks, jobs=args.jobs, journal=args.journal, stats_out=resume_stats
    )
    resume_s = time.perf_counter() - t0
    assert resume_stats.n_journal == killed_after, resume_stats.summary()
    assert resume_stats.n_executed == len(tasks) - killed_after
    assert [r.payload() for r in resumed] == [r.payload() for r in baseline], (
        "resumed results are NOT bit-identical to the clean baseline"
    )

    # 4. warm rerun: everything replays from the journal in ~no time ----------
    t0 = time.perf_counter()
    warm_stats = SweepStats()
    warm = run_sweep(
        tasks, jobs=args.jobs, journal=args.journal, stats_out=warm_stats
    )
    warm_s = time.perf_counter() - t0
    assert warm_stats.n_executed == 0, "warm journal rerun recomputed cells"
    assert [r.payload() for r in warm] == [r.payload() for r in baseline]
    print(
        f"resume:   killed after {killed_after}/{len(tasks)} cells, resume "
        f"recomputed {resume_stats.n_executed} in {resume_s:.1f}s, warm rerun "
        f"recomputed 0 in {warm_s:.2f}s"
    )
    print("ok: chaos healed, kill survived, resume bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
