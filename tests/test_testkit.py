"""Tests of the differential-oracle test kit itself.

Covers the four pillars of :mod:`repro.testkit` (see ``docs/TESTING.md``):

* **oracle parity** — the O(n²) reference scheduler matches the optimized
  engines bit for bit on seeded random workloads;
* **invariant library** — each checker flags hand-built violations and
  stays silent on clean schedules;
* **fuzzer + shrinker** — the acceptance campaign (200 workloads per
  policy configuration, zero findings), mutation detection (a deliberately
  broken engine is caught and shrunk to a tiny reproducer), and shrinker
  unit behavior;
* **edge-case regressions** — zero-runtime jobs, full-cluster jobs and
  same-instant submissions, plus the SWF reproducer round trip.
"""

import inspect

import numpy as np
import pytest

from repro.sched import (
    EASY,
    NO_BACKFILL,
    SimWorkload,
    compute_metrics,
    simulate,
    simulate_conservative,
)
from repro import sched
from repro.sched import fast, faults
from repro.sched.engine import SimResult
from repro.sched.job import workload_from_trace
from repro.testkit import (
    FUZZ_POLICIES,
    check_capacity,
    check_case,
    check_conservation,
    check_no_early_start,
    check_promises,
    check_result,
    fuzz,
    max_concurrent_usage,
    oracle_simulate,
    random_workload,
    shrink,
    workload_to_trace,
)
from repro.traces.swf import read_swf, write_swf

CAPACITY = 16


def _workload(submit, cores, runtime, walltime=None):
    submit = np.asarray(submit, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=np.asarray(cores, dtype=np.int64),
        runtime=runtime,
        walltime=runtime if walltime is None else np.asarray(walltime, float),
        user=np.zeros(len(submit), dtype=np.int64),
    )


# ----------------------------------------------------------------------
# oracle parity


class TestOracleParity:
    """Seeded spot checks; the fuzz campaign below is the bulk guard."""

    def test_matches_engines_on_seeded_workloads(self):
        for case in range(40):
            rng = np.random.default_rng((123, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for policy in FUZZ_POLICIES.values():
                oracle = policy.run_oracle(wl, CAPACITY)
                for impl, engine in policy.run_engines(wl, CAPACITY).items():
                    label = f"{policy.name} {impl}"
                    assert np.array_equal(engine.start, oracle.start), label
                    assert np.array_equal(
                        engine.promised, oracle.promised, equal_nan=True
                    ), label

    def test_oracle_is_a_real_scheduler(self):
        """Oracle output independently passes the invariant battery."""
        rng = np.random.default_rng(7)
        wl = random_workload(rng, capacity=CAPACITY)
        for engine, bf in (("easy", EASY), ("easy", NO_BACKFILL), ("conservative", EASY)):
            res = oracle_simulate(wl, CAPACITY, "fcfs", bf, engine=engine)
            assert check_result(res) == []

    def test_backfill_actually_happens(self):
        # head (16 cores) blocked behind a long 8-core job; the 1-core
        # short job must jump the queue under EASY but not without backfill
        wl = _workload(
            submit=[0.0, 1.0, 2.0],
            cores=[8, 16, 1],
            runtime=[100.0, 10.0, 5.0],
        )
        easy = oracle_simulate(wl, CAPACITY, "fcfs", EASY)
        none = oracle_simulate(wl, CAPACITY, "fcfs", NO_BACKFILL)
        assert easy.backfilled[2]
        assert easy.start[2] == 2.0
        assert none.start[2] > none.start[1]
        assert np.array_equal(
            simulate(wl, CAPACITY, "fcfs", EASY).start, easy.start
        )


class TestOracleFairShare:
    """The fair-share rules checked against hand-derived start times.

    Capacity 4, half-life 24 h.  Job 0 (user 0, 4 cores, 100 s) starts at
    t=0 and credits user 0 with 400 core-seconds.  Jobs 1 (user 0) and 2
    (user 1), each 4 cores for 100 s, arrive together k half-lives later
    and cannot both run.  User 1 has no usage, so it goes first while
    user 0's decayed usage ``400 * 0.5**k`` is still positive.  After
    k = 50 half-lives that usage is ~3.6e-13, below ``USAGE_EPS`` (1e-12),
    so it is dropped and reads 0.0; the tie then falls to (submit, index)
    and job 1 of user 0 goes first.
    """

    HALF_LIFE = 24 * 3600.0

    def _workload(self, k: int) -> SimWorkload:
        t = k * self.HALF_LIFE
        return SimWorkload(
            submit=np.array([0.0, t, t]),
            cores=np.array([4, 4, 4], dtype=np.int64),
            runtime=np.array([100.0, 100.0, 100.0]),
            walltime=np.array([100.0, 100.0, 100.0]),
            user=np.array([0, 0, 1], dtype=np.int64),
        )

    def test_decayed_usage_still_ranks_user_last(self):
        wl = self._workload(10)
        t = 10 * self.HALF_LIFE
        res = oracle_simulate(wl, 4, "fairshare", EASY)
        assert res.start.tolist() == [0.0, t + 100.0, t]
        assert np.array_equal(simulate(wl, 4, "fairshare", EASY).start, res.start)

    def test_usage_decayed_below_epsilon_reads_zero(self):
        wl = self._workload(50)
        t = 50 * self.HALF_LIFE
        res = oracle_simulate(wl, 4, "fairshare", EASY)
        assert res.start.tolist() == [0.0, t, t + 100.0]
        assert np.array_equal(simulate(wl, 4, "fairshare", EASY).start, res.start)


# ----------------------------------------------------------------------
# invariant library


class TestInvariantLibrary:
    def test_max_concurrent_usage_counts_overlap(self):
        peak = max_concurrent_usage(
            np.array([0.0, 5.0, 20.0]),
            np.array([10.0, 10.0, 5.0]),
            np.array([4, 8, 2]),
        )
        assert peak == 12

    def test_back_to_back_jobs_do_not_double_count(self):
        # half-open intervals: release at t is processed before the
        # allocation at t, so a full-cluster handoff peaks at capacity
        peak = max_concurrent_usage(
            np.array([0.0, 10.0]),
            np.array([10.0, 10.0]),
            np.array([16, 16]),
        )
        assert peak == 16

    def test_zero_runtime_jobs_occupy_nothing(self):
        peak = max_concurrent_usage(
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            np.array([16, 16]),
        )
        assert peak <= 16

    def test_check_capacity_flags_overcommit(self):
        wl = _workload([0.0, 0.0], [16, 16], [10.0, 10.0])
        bad = SimResult(
            workload=wl,
            capacity=CAPACITY,
            start=np.array([0.0, 0.0]),  # both at once: 32 > 16
            promised=np.full(2, np.nan),
        )
        assert check_capacity(bad)

    def test_check_no_early_start_flags_time_travel(self):
        wl = _workload([10.0, 20.0], [1, 1], [5.0, 5.0])
        bad = SimResult(
            workload=wl,
            capacity=CAPACITY,
            start=np.array([5.0, 20.0]),
            promised=np.full(2, np.nan),
        )
        assert len(check_no_early_start(bad)) == 1

    def test_check_promises_flags_broken_reservation(self):
        wl = _workload([0.0, 0.0], [1, 1], [5.0, 5.0])
        bad = SimResult(
            workload=wl,
            capacity=CAPACITY,
            start=np.array([0.0, 30.0]),
            promised=np.array([np.nan, 10.0]),
        )
        assert len(check_promises(bad)) == 1
        assert check_promises(bad, slack=25.0) == []

    def test_check_conservation_flags_impossible_makespan(self):
        wl = _workload([0.0, 0.0], [16, 16], [10.0, 10.0])
        bad = SimResult(
            workload=wl,
            capacity=CAPACITY,
            start=np.array([0.0, 0.0]),
            promised=np.full(2, np.nan),
        )
        # makespan 10 < work bound 20 --> conservation must complain
        assert any("makespan" in v for v in check_conservation(bad))

    def test_clean_schedule_is_clean(self):
        wl = _workload([0.0, 5.0, 9.0], [4, 8, 16], [10.0, 3.0, 7.0])
        res = simulate(wl, CAPACITY, "fcfs", EASY)
        assert check_result(res, firm_promises=True) == []


# ----------------------------------------------------------------------
# fuzz campaign (the ISSUE's acceptance bar)


#: the configurations the long campaigns name, so their cost stays fixed
#: as configurations are added (``fuzz()`` defaults to all of them)
FOUR_CONFIGS = ("fcfs", "sjf", "easy", "conservative")


class TestFuzzCampaign:
    @pytest.mark.timeout_s(600)
    def test_acceptance_200_workloads_per_policy(self):
        """200 fuzzed workloads x (fcfs, sjf, easy, conservative): clean."""
        report = fuzz(policies=FOUR_CONFIGS, budget=200, seed=0)
        assert report.ok, report.describe()
        assert report.cases == 200
        assert report.runs == 200 * 4
        assert "ok" in report.describe()

    def test_sjf_easy_configuration_also_clean(self):
        report = fuzz(policies=("sjf-easy",), budget=60, seed=1)
        assert report.ok, report.describe()

    def test_campaign_is_deterministic(self):
        a = fuzz(policies=FOUR_CONFIGS, budget=20, seed=42)
        b = fuzz(policies=FOUR_CONFIGS, budget=20, seed=42)
        assert a.ok and b.ok
        assert a.cases == b.cases and a.runs == b.runs

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            fuzz(policies=("nonexistent",), budget=5)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            fuzz(budget=0)

    def test_default_runs_every_configuration(self):
        report = fuzz(budget=1)
        assert report.ok, report.describe()
        assert report.policies == tuple(FUZZ_POLICIES)


def _mutant(engine, original: str, mutant: str):
    """The engine function ``engine`` compiled from its own source, in its
    module's namespace, with the one line ``original`` replaced by
    ``mutant`` (the engines compute their reservations inline, so there is
    no seam to monkeypatch)."""
    source = inspect.getsource(engine)
    assert source.count(original) == 1, "mutation site moved; update the test"
    namespace = dict(engine.__globals__)
    code = compile(
        source.replace(original, mutant), inspect.getsourcefile(engine), "exec"
    )
    exec(code, namespace)
    return namespace[engine.__name__]


def _mutated_simulate_fast(original: str, mutant: str):
    """``simulate_fast`` with one line mutated (see :func:`_mutant`)."""
    return _mutant(fast.simulate_fast, original, mutant)


class TestMutationDetection:
    """A deliberately broken engine must be caught AND shrunk small."""

    def test_backfill_overcredit_caught_and_shrunk(self, monkeypatch):
        # classic backfill reservation off-by-one in the EASY engine:
        # credit one phantom core at the shadow time, so backfills that
        # delay the promised head are admitted
        buggy = _mutated_simulate_fast(
            "extra = acc - need\n", "extra = acc - need + 1\n"
        )
        monkeypatch.setattr(fast, "simulate_fast", buggy)
        report = fuzz(policies=("easy",), budget=200, seed=0)
        assert not report.ok
        div = report.divergence
        assert div.policy == "easy"
        # caught by the engine-vs-oracle diff, not only downstream checks
        assert any(f.startswith("simulate: job") for f in div.findings)
        # the reproducer stays failing and is tiny
        assert div.workload.n <= 5
        assert check_case(div.workload, report.capacity, FUZZ_POLICIES["easy"])

    def test_fault_reference_overcredit_caught(self, monkeypatch):
        # the same off-by-one in the fault engine's reservation walk; only
        # the fault-oracle differential of every EASY configuration sees it
        buggy = _mutant(
            faults.simulate_with_faults,
            "extra = acc - c_head\n", "extra = acc - c_head + 1\n",
        )
        monkeypatch.setattr(sched, "simulate_with_faults", buggy)
        report = fuzz(policies=("easy",), budget=200, seed=0)
        assert not report.ok
        div = report.divergence
        # caught by the engine-vs-fault-oracle diff; the EASY engine is clean
        assert any(
            f.startswith("faults[") and "!= oracle" in f for f in div.findings
        )
        assert not any(f.startswith("simulate:") for f in div.findings)
        assert div.workload.n <= 5
        assert check_case(div.workload, report.capacity, FUZZ_POLICIES["easy"])

    def test_priority_inversion_caught(self, monkeypatch):
        # sort ties the wrong way: breaks the documented (score, submit,
        # index) tie-break; the differential must notice
        from repro.sched import policies as pol

        def inverted(self, submit, cores, walltime, now, **context):
            scores = self.score(submit, cores, walltime, now)
            return np.lexsort((-np.arange(len(submit)), scores))

        monkeypatch.setattr(pol.Policy, "order", inverted)
        report = fuzz(policies=("fcfs", "easy"), budget=200, seed=0)
        assert not report.ok
        assert report.divergence.workload.n <= 5


class TestShrinker:
    def test_shrinks_to_single_trigger_job(self):
        rng = np.random.default_rng(3)
        wl = random_workload(rng, capacity=CAPACITY, max_jobs=12)
        # make sure at least one full-cluster job exists
        wl.cores[0] = CAPACITY

        def fails(w):
            return bool(np.any(w.cores == CAPACITY))

        shrunk, evals = shrink(wl, fails)
        assert fails(shrunk)
        assert shrunk.n == 1
        assert shrunk.cores[0] == CAPACITY
        # value minimization drove every other field to its floor
        assert shrunk.runtime[0] == 0.0
        assert shrunk.walltime[0] == 0.0
        assert shrunk.submit[0] == 0.0
        assert evals > 0

    def test_respects_eval_budget(self):
        rng = np.random.default_rng(4)
        wl = random_workload(rng, capacity=CAPACITY, max_jobs=12)

        def fails(w):
            return True

        shrunk, evals = shrink(wl, fails, max_evals=10)
        assert evals <= 10 + 4  # one simplification pass may finish its job
        assert fails(shrunk)

    def test_crashing_candidate_counts_as_failure(self):
        wl = _workload([0.0, 0.0], [1, 2], [5.0, 5.0])

        def fails(w):
            if w.n < 2:
                raise RuntimeError("engine crashed")
            return False

        shrunk, _ = shrink(wl, fails)
        # the crash was treated as "still failing", so removal proceeded
        assert shrunk.n == 1


# ----------------------------------------------------------------------
# edge-case regressions (ISSUE satellite)


class TestEdgeCases:
    def test_zero_runtime_jobs_start_at_submit(self):
        wl = _workload([0.0, 3.0, 3.0], [16, 16, 16], [0.0, 0.0, 0.0])
        for run in (
            simulate(wl, CAPACITY, "fcfs", EASY),
            simulate_conservative(wl, CAPACITY),
            oracle_simulate(wl, CAPACITY, "fcfs", EASY),
        ):
            # zero-runtime jobs occupy nothing: no queueing at all
            assert np.array_equal(run.start, wl.submit)
            assert check_result(run) == []

    def test_all_zero_runtime_metrics_do_not_divide_by_zero(self):
        # regression: utilization of a zero-second makespan is 0, not 0/0
        wl = _workload([0.0, 0.0], [4, 4], [0.0, 0.0])
        m = compute_metrics(simulate(wl, CAPACITY, "fcfs", EASY))
        assert m.util == 0.0
        assert m.wait == 0.0

    def test_full_cluster_job_serializes_the_queue(self):
        wl = _workload(
            submit=[0.0, 0.0, 0.0],
            cores=[CAPACITY, CAPACITY, CAPACITY],
            runtime=[10.0, 10.0, 10.0],
        )
        for run in (
            simulate(wl, CAPACITY, "fcfs", EASY),
            simulate_conservative(wl, CAPACITY),
        ):
            # identical submit + identical score: documented tie-break is
            # ascending job index (see Policy.order)
            assert np.array_equal(run.start, np.array([0.0, 10.0, 20.0]))

    def test_same_instant_ties_follow_job_index(self):
        # equal submit, equal walltime: SJF scores tie too — the ordering
        # must still be deterministic and index-ascending
        wl = _workload(
            submit=[5.0] * 4,
            cores=[CAPACITY] * 4,
            runtime=[7.0] * 4,
        )
        for policy in ("fcfs", "sjf"):
            res = simulate(wl, CAPACITY, policy, EASY)
            assert np.array_equal(
                np.argsort(res.start, kind="stable"), np.arange(4)
            )

    def test_walltime_equals_runtime_keeps_conservative_firm(self):
        rng = np.random.default_rng(11)
        wl = random_workload(rng, capacity=CAPACITY)
        exact = SimWorkload(
            submit=wl.submit,
            cores=wl.cores,
            runtime=wl.runtime,
            walltime=wl.runtime,
            user=wl.user,
        )
        res = simulate_conservative(exact, CAPACITY)
        assert check_result(res, firm_promises=True) == []


# ----------------------------------------------------------------------
# SWF reproducer round trip


class TestReproducerRoundTrip:
    def test_swf_round_trip_preserves_schedule(self, tmp_path):
        rng = np.random.default_rng(5)
        wl = random_workload(rng, capacity=CAPACITY)
        path = tmp_path / "repro.swf"
        write_swf(workload_to_trace(wl, CAPACITY), path)
        back = workload_from_trace(read_swf(path))

        assert np.array_equal(back.submit, wl.submit)
        assert np.array_equal(back.cores, wl.cores)
        assert np.array_equal(back.runtime, wl.runtime)
        # SWF stores walltime 0 as "missing"; the read-back fallback is
        # equivalent under the walltime >= runtime clamp, so the schedule
        # itself must be identical even where the field is not
        for policy in FUZZ_POLICIES.values():
            a = policy.run_engines(wl, CAPACITY)
            b = policy.run_engines(back, CAPACITY)
            for impl in a:
                assert np.array_equal(a[impl].start, b[impl].start), impl

    def test_trace_capacity_matches_fuzz_cluster(self):
        rng = np.random.default_rng(6)
        wl = random_workload(rng, capacity=CAPACITY)
        trace = workload_to_trace(wl, CAPACITY)
        assert trace.system.schedulable_units == CAPACITY
        assert trace.num_jobs == wl.n
