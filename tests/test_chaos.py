"""Crash-safe sweep execution under injected faults (the PR 6 tentpole).

The acceptance properties, in order of load-bearing-ness:

* a sweep riddled with seeded worker crashes, hangs, transient errors and
  corrupt results — retried by the watchdog — returns results
  **bit-identical** to a clean serial run (chaos decides *whether* an
  attempt fails, never what a success computes);
* an interrupted sweep resumed from its journal recomputes **zero** cells
  and is bit-identical to an uninterrupted run;
* poison errors (deterministic task bugs) are never retried; transient
  ones are, up to the policy's budget;
* ``on_error`` semantics: ``raise`` aborts with partial results,
  ``skip`` leaves ``None`` holes, ``retry`` heals what it can;
* no worker process outlives ``run_sweep`` — including aborts.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.obs import RunRegistry, read_records
from repro.runner import (
    FailureReport,
    ResultCache,
    RetryPolicy,
    SimTask,
    SweepError,
    SweepJournal,
    SweepStats,
    TaskFailure,
    is_transient,
    run_sweep,
)
from repro.sched import EASY, SimWorkload
from repro.testkit import NO_CHAOS, ChaosConfig, ChaosError
from repro.testkit.chaos import CHAOS_EXIT_CODE


def wl(n=20, seed=3):
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0, 1800.0, n))
    runtime = rng.uniform(60.0, 900.0, n)
    return SimWorkload(
        submit=submit,
        cores=rng.integers(1, 8, n).astype(np.int64),
        runtime=runtime,
        walltime=runtime * 1.5,
        user=np.zeros(n, dtype=np.int64),
    )


def grid(workload, policies=("fcfs", "sjf", "f1", "wfp3"), capacity=16):
    return [
        SimTask(
            label=policy,
            workload=workload,
            policy=policy,
            backfill=EASY,
            capacity=capacity,
        )
        for policy in policies
    ]


def metrics_of(results):
    return [None if r is None else r.metrics for r in results]


# fast retries everywhere: chaos tests never need to actually sleep
FAST = RetryPolicy(max_attempts=8, backoff_base=0.0)


def healable(chaos: ChaosConfig, tasks) -> bool:
    """Whether every task draws a clean attempt within FAST's budget."""
    return all(
        any(
            chaos.fault_for(t.fingerprint(), attempt) is None
            for attempt in range(1, FAST.max_attempts + 1)
        )
        for t in tasks
    )


class TestChaosConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(crash_p=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(crash_p=0.5, hang_p=0.4, error_p=0.2)
        with pytest.raises(ValueError):
            ChaosConfig(hang_seconds=0.0)

    def test_no_chaos_draws_nothing(self):
        for i in range(50):
            assert NO_CHAOS.fault_for(f"fp{i}", 1) is None
            assert not NO_CHAOS.corrupts_result(f"fp{i}", 1)
            assert not NO_CHAOS.corrupts_cache(f"fp{i}")

    def test_draws_deterministic_and_seed_sensitive(self):
        a = ChaosConfig(crash_p=0.5, seed=1)
        b = ChaosConfig(crash_p=0.5, seed=2)
        faults_a = [a.fault_for(f"fp{i}", 1) for i in range(40)]
        assert faults_a == [a.fault_for(f"fp{i}", 1) for i in range(40)]
        assert faults_a != [b.fault_for(f"fp{i}", 1) for i in range(40)]

    def test_fault_kinds_follow_stacked_thresholds(self):
        cfg = ChaosConfig(crash_p=0.3, hang_p=0.3, error_p=0.3, seed=5)
        kinds = {cfg.fault_for(f"fp{i}", 1) for i in range(200)}
        assert kinds == {"crash", "hang", "error", None}

    def test_error_fault_raises_transient(self):
        cfg = ChaosConfig(error_p=1.0, seed=0)
        with pytest.raises(ChaosError) as exc_info:
            cfg.before_execute("fp", 1)
        assert is_transient(exc_info.value)


class TestRetryPolicy:
    def test_delay_deterministic_and_growing(self):
        p = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, jitter=0.5)
        d1, d2, d3 = (p.delay("fp", n) for n in (1, 2, 3))
        assert (d1, d2, d3) == tuple(p.delay("fp", n) for n in (1, 2, 3))
        assert 0.5 <= d1 <= 0.75
        assert 1.0 <= d2 <= 1.5
        assert 2.0 <= d3 <= 3.0

    def test_zero_base_never_sleeps(self):
        assert FAST.delay("fp", 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestChaosBitIdentical:
    """The tentpole property: chaos + retries never change any result."""

    def test_crashes_and_errors_healed_bit_identical(self):
        tasks = grid(wl())
        clean = run_sweep(tasks, jobs=1)
        # same seed-drift caveat as the corrupt test below: scan for a
        # seed whose schedule faults at least one first attempt and still
        # lets every cell heal within FAST's budget (a seed that faults a
        # cell on every attempt is test_unhealable_chaos_seed_ends_in_failure)
        chaos = next(
            cfg
            for seed in range(64)
            for cfg in (ChaosConfig(crash_p=0.3, error_p=0.2, seed=seed),)
            if any(cfg.fault_for(t.fingerprint(), 1) for t in tasks)
            and healable(cfg, tasks)
        )
        report = FailureReport()
        stats = SweepStats()
        healed = run_sweep(
            tasks,
            jobs=3,
            chaos=chaos,
            on_error="retry",
            retry=FAST,
            failures_out=report,
            stats_out=stats,
        )
        assert metrics_of(healed) == metrics_of(clean)
        assert report.ok
        # the chaos schedule is predictable: at least one first attempt
        # must have faulted for this seed, so retries really happened
        first_attempt_faults = sum(
            chaos.fault_for(t.fingerprint(), 1) is not None for t in tasks
        )
        assert first_attempt_faults > 0
        assert report.n_retried >= first_attempt_faults
        assert stats.n_retried == report.n_retried
        assert "retried" in stats.summary()

    def test_corrupt_results_detected_and_healed(self):
        tasks = grid(wl())
        clean = run_sweep(tasks, jobs=1)
        # fingerprints include code_version(), so any sched edit reshuffles
        # the chaos draws; pick the first seed that corrupts at least one
        # first attempt rather than pinning one that can drift to zero
        chaos = next(
            cfg
            for seed in range(64)
            for cfg in (ChaosConfig(corrupt_result_p=0.5, seed=seed),)
            if any(cfg.corrupts_result(t.fingerprint(), 1) for t in tasks)
        )
        report = FailureReport()
        healed = run_sweep(
            tasks,
            jobs=2,
            chaos=chaos,
            on_error="retry",
            retry=FAST,
            failures_out=report,
        )
        assert metrics_of(healed) == metrics_of(clean)
        assert all(f.kind == "corrupt" for f in report.retries)
        assert report.n_retried > 0

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @pytest.mark.timeout_s(280)
    def test_any_chaos_seed_is_healed_bit_identical(self, seed):
        tasks = grid(wl(n=10), policies=("fcfs", "sjf"))
        chaos = ChaosConfig(crash_p=0.25, error_p=0.25, seed=seed)
        # about 0.8% of seeds fault some cell on every attempt; those
        # cannot heal (see test_unhealable_chaos_seed_ends_in_failure)
        assume(healable(chaos, tasks))
        clean = run_sweep(tasks, jobs=1)
        healed = run_sweep(
            tasks,
            jobs=2,
            chaos=chaos,
            on_error="retry",
            retry=FAST,
        )
        assert metrics_of(healed) == metrics_of(clean)

    def test_unhealable_chaos_seed_ends_in_failure(self):
        """A seed that faults a cell on all attempts exhausts the retry
        budget: ``on_error="retry"`` records the failure and leaves a
        ``None`` hole, and every other cell still matches the clean run."""
        tasks = grid(wl(n=10), policies=("fcfs", "sjf"))
        chaos = next(
            cfg
            for seed in range(20_000)
            for cfg in (ChaosConfig(crash_p=0.25, error_p=0.25, seed=seed),)
            if not healable(cfg, tasks)
        )
        clean = run_sweep(tasks, jobs=1)
        report = FailureReport()
        healed = run_sweep(
            tasks,
            jobs=2,
            chaos=chaos,
            on_error="retry",
            retry=FAST,
            failures_out=report,
        )
        doomed = [not healable(chaos, [t]) for t in tasks]
        assert [r is None for r in healed] == doomed
        assert len(report.failures) == sum(doomed)
        assert all(
            f.transient and f.attempt == FAST.max_attempts
            for f in report.failures
        )
        assert [
            m for m, d in zip(metrics_of(healed), doomed) if not d
        ] == [m for m, d in zip(metrics_of(clean), doomed) if not d]

    def test_cache_corruption_quarantined_and_recomputed(self, tmp_path):
        tasks = grid(wl())
        cache = ResultCache(tmp_path / "cache")
        chaos = ChaosConfig(cache_corrupt_p=1.0, seed=1)
        first = run_sweep(tasks, jobs=1, cache=cache, chaos=chaos)
        # every entry was clobbered after the write; a second sweep must
        # quarantine them all and recompute, still bit-identical
        stats = SweepStats()
        second = run_sweep(tasks, jobs=2, cache=cache, stats_out=stats)
        assert metrics_of(second) == metrics_of(first)
        assert stats.cache_corrupt == len(tasks)
        assert stats.n_executed == len(tasks)
        quarantined = list((tmp_path / "cache").glob("*/*.corrupt"))
        assert len(quarantined) == len(tasks)


class TestErrorClassification:
    def test_transient_marker_and_resource_errors(self):
        assert is_transient(ChaosError("x"))
        assert is_transient(OSError("disk"))
        assert is_transient(MemoryError())
        assert not is_transient(ValueError("bug"))
        assert not is_transient(KeyError("bug"))

    def test_poison_cell_not_retried(self):
        # an unknown policy is a deterministic task bug: poison, 1 attempt
        tasks = grid(wl(n=6), policies=("fcfs", "no-such-policy"))
        report = FailureReport()
        results = run_sweep(
            tasks,
            jobs=2,
            on_error="skip",
            retry=FAST,
            failures_out=report,
        )
        assert results[0] is not None
        assert results[1] is None
        [failure] = report.failures
        assert failure.kind == "error"
        assert not failure.transient
        assert failure.attempt == 1
        assert report.n_retried == 0

    def test_transient_errors_exhaust_their_budget(self):
        tasks = grid(wl(n=6), policies=("fcfs",))
        chaos = ChaosConfig(error_p=1.0, seed=2)  # every attempt fails
        report = FailureReport()
        results = run_sweep(
            tasks,
            jobs=1,
            chaos=chaos,
            on_error="skip",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            failures_out=report,
        )
        assert results == [None]
        [failure] = report.failures
        assert failure.transient
        assert failure.attempt == 3
        assert report.n_retried == 2


class TestOnErrorPolicies:
    def test_raise_aborts_with_partial_results(self):
        tasks = grid(wl(n=6), policies=("fcfs", "no-such-policy", "sjf"))
        with pytest.raises(SweepError) as exc_info:
            run_sweep(tasks, jobs=1)
        err = exc_info.value
        assert not err.report.ok
        assert len(err.results) == 3
        assert any(r is not None for r in err.results) or True  # partials allowed
        assert "no-such-policy" in str(err)

    def test_skip_leaves_holes_and_returns(self):
        tasks = grid(wl(n=6), policies=("fcfs", "no-such-policy", "sjf"))
        clean = run_sweep(grid(wl(n=6), policies=("fcfs", "sjf")), jobs=1)
        results = run_sweep(tasks, jobs=2, on_error="skip")
        assert results[1] is None
        assert [results[0].metrics, results[2].metrics] == metrics_of(clean)

    def test_invalid_policy_values_rejected(self):
        tasks = grid(wl(n=6), policies=("fcfs",))
        with pytest.raises(ValueError):
            run_sweep(tasks, on_error="explode")
        with pytest.raises(ValueError):
            run_sweep(tasks, timeout=0.0)


class TestSupervisedPool:
    """The one executor: persistent workers under a supervising parent."""

    def test_workers_persist_across_cells(self):
        tasks = grid(wl(n=8), policies=("fcfs", "sjf", "f1", "wfp3") * 2)
        results = run_sweep(tasks, jobs=2)
        assert len({r.worker for r in results}) == 2

    def test_chaos_crash_rows_carry_the_exit_code(self):
        tasks = grid(wl(n=6), policies=("fcfs", "sjf"))
        report = FailureReport()
        results = run_sweep(
            tasks,
            jobs=2,
            chaos=ChaosConfig(crash_p=1.0, seed=0),
            on_error="skip",
            failures_out=report,
        )
        assert results == [None, None]
        assert [f.kind for f in report.failures] == ["crash", "crash"]
        assert all(f.exitcode == CHAOS_EXIT_CODE for f in report.failures)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_worker_outlives_the_sweep(self, jobs):
        run_sweep(grid(wl(n=6)), jobs=jobs)
        assert not multiprocessing.active_children()
        with pytest.raises(SweepError):
            run_sweep(grid(wl(n=6), policies=("fcfs", "no-such-policy")),
                      jobs=jobs)
        assert not multiprocessing.active_children()

    @pytest.mark.timeout_s(60)
    def test_dying_worker_fails_the_sweep_instead_of_hanging(self, monkeypatch):
        """A worker killed mid-cell (as by the OOM killer) is a crash."""
        import os

        import repro.runner.sweep as sweep_mod

        run_cell = sweep_mod._run_cell

        def oom_killed(task, *args, **kwargs):
            if task.label == "sjf":
                os._exit(137)
            return run_cell(task, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_run_cell", oom_killed)
        with pytest.raises(SweepError) as exc_info:
            run_sweep(grid(wl(n=6)), jobs=2)
        [failure] = exc_info.value.report.failures
        assert (failure.label, failure.kind) == ("sjf", "crash")
        assert failure.exitcode == 137
        assert not multiprocessing.active_children()

    def test_parent_trace_cache_warmed_before_forking(self):
        from repro.runner import WorkloadSpec
        from repro.traces.synth import cached_traces

        spec = WorkloadSpec(system="theta", days=1.0, seed=7, max_jobs=50)
        run_sweep([SimTask(label="theta", workload=spec)], jobs=1)
        hits = cached_traces.cache_info().hits
        cached_traces(spec.days, spec.seed)
        assert cached_traces.cache_info().hits == hits + 1


class TestWatchdogTimeout:
    @pytest.mark.timeout_s(120)
    def test_hung_workers_killed_and_reported(self):
        tasks = grid(wl(n=6), policies=("fcfs", "sjf"))
        chaos = ChaosConfig(hang_p=1.0, seed=4, hang_seconds=300.0)
        report = FailureReport()
        t0 = time.monotonic()
        results = run_sweep(
            tasks,
            jobs=2,
            chaos=chaos,
            timeout=0.5,
            on_error="skip",
            failures_out=report,
        )
        assert time.monotonic() - t0 < 60.0  # nowhere near hang_seconds
        assert results == [None, None]
        assert {f.kind for f in report.failures} == {"timeout"}
        assert all(f.transient for f in report.failures)
        assert not multiprocessing.active_children()

    @pytest.mark.timeout_s(120)
    def test_hang_then_retry_recovers(self):
        tasks = grid(wl(n=6), policies=("fcfs",))
        clean = run_sweep(tasks, jobs=1)
        fp = tasks[0].fingerprint()
        # find a seed whose first attempt hangs but second doesn't, so the
        # retry path genuinely exercises kill-then-respawn
        seed = next(
            s
            for s in range(200)
            if ChaosConfig(hang_p=0.6, seed=s).fault_for(fp, 1) == "hang"
            and ChaosConfig(hang_p=0.6, seed=s).fault_for(fp, 2) is None
        )
        report = FailureReport()
        results = run_sweep(
            tasks,
            jobs=1,
            chaos=ChaosConfig(hang_p=0.6, seed=seed, hang_seconds=300.0),
            timeout=0.5,
            on_error="retry",
            retry=FAST,
            failures_out=report,
        )
        assert metrics_of(results) == metrics_of(clean)
        assert report.retries and report.retries[0].kind == "timeout"


class TestJournalResume:
    def test_resume_recomputes_zero_cells(self, tmp_path):
        tasks = grid(wl())
        journal_path = tmp_path / "sweep.jsonl"
        clean = run_sweep(tasks, jobs=1)

        # "interrupted" run: only half the grid completed
        run_sweep(tasks[:2], jobs=1, journal=journal_path)

        stats = SweepStats()
        resumed = run_sweep(tasks, jobs=2, journal=journal_path, stats_out=stats)
        assert metrics_of(resumed) == metrics_of(clean)
        assert stats.n_journal == 2
        assert stats.n_executed == 2

        # a second full resume recomputes nothing at all
        stats2 = SweepStats()
        again = run_sweep(tasks, jobs=2, journal=journal_path, stats_out=stats2)
        assert metrics_of(again) == metrics_of(clean)
        assert stats2.n_journal == len(tasks)
        assert stats2.n_executed == 0

    def test_resume_after_worker_kill_mid_sweep(self, tmp_path):
        """The crash the journal exists for: die mid-sweep, resume clean."""
        tasks = grid(wl())
        journal_path = tmp_path / "sweep.jsonl"
        clean = run_sweep(tasks, jobs=1)

        class Abort(BaseException):
            pass

        n_before_abort = 2

        from repro.obs.runs import ProgressReporter

        class AbortingProgress(ProgressReporter):
            enabled = True
            seen = 0

            def task_done(self, record, done, total):
                AbortingProgress.seen += 1
                if AbortingProgress.seen >= n_before_abort:
                    raise Abort()

        with pytest.raises(Abort):
            run_sweep(tasks, jobs=1, journal=journal_path,
                      progress=AbortingProgress())
        assert not multiprocessing.active_children()

        completed = SweepJournal(journal_path).completed()
        assert len(completed) == n_before_abort

        stats = SweepStats()
        resumed = run_sweep(tasks, jobs=2, journal=journal_path, stats_out=stats)
        assert metrics_of(resumed) == metrics_of(clean)
        assert stats.n_journal == n_before_abort
        assert stats.n_executed == len(tasks) - n_before_abort

    def test_journal_tolerates_torn_tail(self, tmp_path):
        tasks = grid(wl(), policies=("fcfs", "sjf"))
        journal_path = tmp_path / "sweep.jsonl"
        run_sweep(tasks, jobs=1, journal=journal_path)

        # crash mid-append: a torn, newline-less fragment at the tail
        with open(journal_path, "ab") as fh:
            fh.write(b'{"event": "task", "finger')

        # re-opening truncates the torn tail; the two complete cells survive
        with pytest.warns(RuntimeWarning, match="torn"):
            journal = SweepJournal(journal_path)
        assert len(journal.completed()) == 2
        journal.close()

        # the repaired file resumes cleanly and stays strictly parseable
        stats = SweepStats()
        more = grid(wl(), policies=("fcfs", "sjf", "f1"))
        run_sweep(more, jobs=1, journal=journal_path, stats_out=stats)
        assert stats.n_journal == 2
        lines = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        assert all(isinstance(entry, dict) for entry in lines)

    def test_reader_tolerates_torn_tail_without_repair(self, tmp_path):
        # read_records (no writer involved) skips the torn tail with a
        # warning instead of raising
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "task", "fingerprint": "f", "payload": {}}\n')
        with open(path, "ab") as fh:
            fh.write(b'{"event": "task", "finger')
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            records = read_records(path)
        assert len(records) == 1

    def test_journal_hits_keep_cache_optional(self, tmp_path):
        # journal alone (no cache) is enough to resume
        tasks = grid(wl(), policies=("fcfs", "sjf"))
        journal_path = tmp_path / "sweep.jsonl"
        first = run_sweep(tasks, jobs=1, journal=journal_path)
        stats = SweepStats()
        second = run_sweep(tasks, jobs=1, journal=journal_path, stats_out=stats)
        assert metrics_of(second) == metrics_of(first)
        assert stats.n_executed == 0
        assert all(r.cached for r in second)

    def test_cache_hits_are_journaled(self, tmp_path):
        # a cell served from cache lands in the journal too, so a later
        # resume never depends on the cache surviving
        tasks = grid(wl(), policies=("fcfs", "sjf"))
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks, jobs=1, cache=cache)
        journal_path = tmp_path / "sweep.jsonl"
        run_sweep(tasks, jobs=1, cache=cache, journal=journal_path)
        completed = SweepJournal(journal_path).completed()
        assert len(completed) == 2

    def test_closed_journal_rejects_writes(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError):
            journal.record("fp", {})


class TestFailureTelemetry:
    def test_registry_records_failures_and_retries(self, tmp_path):
        tasks = grid(wl(n=6), policies=("fcfs", "no-such-policy"))
        registry = RunRegistry(tmp_path / "runs.jsonl")
        chaos = ChaosConfig(error_p=0.4, seed=11)
        run_sweep(
            tasks,
            jobs=1,
            registry=registry,
            chaos=chaos,
            on_error="skip",
            retry=FAST,
        )
        registry.close()
        records = read_records(tmp_path / "runs.jsonl")
        statuses = [r.get("status", "ok") for r in records]
        assert any(s.startswith("failed:") for s in statuses)
        failed = [r for r in records if r["status"].startswith("failed:")]
        assert all(r["attempt"] >= 1 for r in failed)
        ok = [r for r in records if r.get("status", "ok") == "ok"]
        assert len(ok) == 1  # fcfs (possibly after retries)

    def test_failure_report_shapes(self):
        f = TaskFailure(
            label="x", fingerprint="f", kind="crash", message="",
            attempt=2, transient=True,
        )
        report = FailureReport(failures=[f], retries=[f])
        d = report.as_dict()
        assert d["failures"][0]["kind"] == "crash"
        assert "1 cell(s) failed" in report.summary()
        assert "1 attempt(s) retried" in report.summary()
        report.clear()
        assert report.ok and report.summary() == "no failures"

    def test_sweep_stats_summary_mentions_failures(self):
        stats = SweepStats(n_tasks=4, n_failed=1, n_retried=2, n_journal=1)
        text = stats.summary()
        assert "1 failed" in text
        assert "2 retried" in text
        assert "journal" in text
