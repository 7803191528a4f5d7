"""Unit tests for the fault-injection and resilience layer."""

import math

import numpy as np
import pytest

from repro.sched import (
    EASY,
    NO_FAULTS,
    FaultConfig,
    SimWorkload,
    relaxed,
    simulate,
    simulate_with_faults,
    workload_from_trace,
)
from repro.obs import ColumnarRecorder, RingBufferTracer
from repro.sched.faults import (
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_NODE_KILLED,
    ATTEMPT_USER_KILLED,
)
from repro.testkit import oracle_simulate, oracle_simulate_with_faults
from repro.testkit.fuzz import _FAULT_FIELDS
from repro.traces.schema import JobStatus
from repro.traces.synth import generate_trace


def make_workload(
    submit, cores, runtime, walltime=None, status=None
) -> SimWorkload:
    submit = np.asarray(submit, dtype=float)
    cores = np.asarray(cores, dtype=np.int64)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=cores,
        runtime=runtime,
        walltime=(
            runtime if walltime is None else np.asarray(walltime, dtype=float)
        ),
        user=np.zeros(len(submit), dtype=np.int64),
        status=None if status is None else np.asarray(status, dtype=np.int64),
    )


class TestFaultConfig:
    def test_defaults_are_null(self):
        assert NO_FAULTS.is_null
        assert not NO_FAULTS.has_node_faults
        assert not NO_FAULTS.has_intrinsic_faults

    def test_active_flags(self):
        assert FaultConfig(node_mtbf=100.0).has_node_faults
        assert FaultConfig(fail_prob=0.1).has_intrinsic_faults
        assert FaultConfig(kill_prob=0.1).has_intrinsic_faults
        assert not FaultConfig(node_mtbf=100.0).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_mtbf": 0.0},
            {"node_mtbf": -1.0},
            {"node_mttr": 0.0},
            {"node_mttr": math.inf},
            {"n_nodes": 0},
            {"fail_prob": 1.5},
            {"kill_prob": -0.1},
            {"fail_prob": 0.6, "kill_prob": 0.6},
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"checkpoint_interval": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_from_workload_calibration(self):
        status = [
            int(JobStatus.PASSED),
            int(JobStatus.FAILED),
            int(JobStatus.KILLED),
            int(JobStatus.PASSED),
        ]
        wl = make_workload(
            [0, 1, 2, 3], [1, 1, 1, 1], [10, 10, 10, 10], status=status
        )
        cfg = FaultConfig.from_workload(wl, max_attempts=2)
        assert cfg.fail_prob == pytest.approx(0.25)
        assert cfg.kill_prob == pytest.approx(0.25)
        assert cfg.max_attempts == 2

    def test_from_trace_matches_workload(self):
        trace = generate_trace("theta", days=2.0, seed=0)
        wl = workload_from_trace(trace)
        a = FaultConfig.from_trace(trace)
        b = FaultConfig.from_workload(wl)
        assert a.fail_prob == pytest.approx(b.fail_prob)
        assert a.kill_prob == pytest.approx(b.kill_prob)


class TestStatusPropagation:
    def test_workload_carries_trace_status(self):
        trace = generate_trace("theta", days=2.0, seed=0)
        wl = workload_from_trace(trace)
        assert np.array_equal(wl.status, trace["status"].astype(np.int64))
        # the mix is non-trivial: the generator produces failures/kills
        assert (wl.status != int(JobStatus.PASSED)).any()

    def test_default_status_is_passed(self):
        wl = make_workload([0, 1], [1, 1], [5, 5])
        assert np.all(wl.status == int(JobStatus.PASSED))

    def test_slice_keeps_status(self):
        status = [0, 1, 2, 0]
        wl = make_workload(
            [0, 1, 2, 3], [1, 1, 1, 1], [10, 10, 10, 10], status=status
        )
        assert np.array_equal(wl.slice(2).status, np.array([0, 1]))


def _first_failures(res) -> dict[int, float]:
    """node -> instant of its first failure in a fault run."""
    first: dict[int, float] = {}
    for t, node in zip(res.node_fail_times, res.node_fail_nodes):
        first.setdefault(int(node), float(t))
    return first


class TestFaultyCluster:
    """The node layout of the flat pool: capacity split, first-fit
    pinning, kills, repairs and the degraded hold, seen through hand-built
    ``simulate_with_faults`` runs (and the oracle, which must agree)."""

    #: fast churn, one attempt per job: every long job dies with the
    #: first failure of a node it holds units on
    CHURN = dict(node_mtbf=100.0, node_mttr=10.0, max_attempts=1)

    def _run(self, wl, capacity, cfg, tracer=None):
        res = simulate_with_faults(
            wl, capacity, "fcfs", EASY, cfg, track_queue=True, tracer=tracer
        )
        ref = oracle_simulate_with_faults(
            wl, capacity, "fcfs", EASY, cfg, track_queue=True
        )
        for name in ("start", "end", "status", "attempt_job", "node_fail_times"):
            assert np.array_equal(getattr(res, name), getattr(ref, name)), name
        return res

    def test_capacity_split(self):
        # 10 units over 4 nodes are 3 + 3 + 2 + 2: jobs of exactly those
        # sizes pin one to a node, so each dies with its own node only
        wl = make_workload([0, 0, 0, 0], [3, 3, 2, 2], [1e6] * 4)
        cfg = FaultConfig(**self.CHURN, n_nodes=4, seed=0)
        res = self._run(wl, 10, cfg)
        assert np.all(res.start == 0.0)
        first = _first_failures(res)
        assert res.end.tolist() == [first[k] for k in range(4)]
        assert np.all(res.status == int(JobStatus.KILLED))

    def test_fail_kills_exactly_the_span_holders(self):
        # job 0 fills node 0 (4 units); job 1 holds 2 of node 1's 4
        wl = make_workload([0, 0], [4, 2], [1e6, 1e6])
        for seed in range(4):
            cfg = FaultConfig(**self.CHURN, n_nodes=2, seed=seed)
            tracer = RingBufferTracer()
            res = self._run(wl, 8, cfg, tracer)
            fail = next(e for e in tracer.events if e["kind"] == "node_fail")
            # only the failed node's holder dies; the other keeps its units
            assert fail["victims"] == [fail["node"]]
            assert fail["free"] == (2 if fail["node"] == 0 else 0)
            first = _first_failures(res)
            assert res.end.tolist() == [first[0], first[1]]

    def test_spanning_job_dies_with_either_node(self):
        wl = make_workload([0], [6], [1e6])  # node 0 (4) + node 1 (2)
        killers = set()
        for seed in range(6):
            cfg = FaultConfig(**self.CHURN, n_nodes=2, seed=seed)
            tracer = RingBufferTracer()
            res = self._run(wl, 8, cfg, tracer)
            fail = next(e for e in tracer.events if e["kind"] == "node_fail")
            killers.add(fail["node"])
            assert fail["victims"] == [0]
            assert fail["free"] == 4  # the surviving node is fully free again
            assert res.end[0] == res.node_fail_times[0]
        assert killers == {0, 1}

    def test_repair_restores_capacity(self):
        # the whole-machine job's retry can only start once the failed
        # node is back with all its units
        wl = make_workload([0], [8], [1e6])
        cfg = FaultConfig(
            node_mtbf=1e5, node_mttr=50.0, n_nodes=2, max_attempts=2,
            backoff_base=1.0, seed=3,
        )
        tracer = RingBufferTracer()
        res = self._run(wl, 8, cfg, tracer)
        repair = next(e for e in tracer.events if e["kind"] == "node_repair")
        assert repair["free"] == 8
        assert res.attempt_start[1] == repair["t"] == res.node_repair_times[0]

    def test_reservation_infinite_while_too_degraded(self):
        # while a node is down the 8-unit head needs more than the healthy
        # machine has: no reservation, no promise and no backfill, so a
        # 1-core job submitted meanwhile leaves the 4 healthy units idle
        # and waits past the repair (where the head restarts first)
        cfg = FaultConfig(
            node_mtbf=1e5, node_mttr=50.0, n_nodes=2, max_attempts=2,
            backoff_base=1.0, seed=3,
        )
        alone = self._run(make_workload([0], [8], [1e6]), 8, cfg)
        fail, repair = alone.node_fail_times[0], alone.node_repair_times[0]
        wl = make_workload([0, (fail + repair) / 2], [8, 1], [1e6, 5.0])
        tracer = RingBufferTracer()
        res = self._run(wl, 8, cfg, tracer)
        fail_event = next(e for e in tracer.events if e["kind"] == "node_fail")
        assert fail_event["free"] == 4
        assert res.attempt_start[1] == repair  # the head's retry
        assert res.start[1] >= repair > wl.submit[1]
        assert np.isnan(res.promised[0])
        assert not [
            e for e in tracer.events
            if e["kind"] == "reservation" and e["t"] < repair
        ]


class TestIntrinsicFaults:
    def test_certain_kill_is_terminal_and_never_retried(self):
        wl = make_workload([0, 1, 2], [1, 1, 1], [100, 100, 100])
        cfg = FaultConfig(kill_prob=1.0, max_attempts=5, seed=1)
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert np.all(res.status == int(JobStatus.KILLED))
        assert np.all(res.attempts == 1)
        assert np.all(res.attempt_outcome == ATTEMPT_USER_KILLED)
        # killed partway: all consumed work is waste
        assert res.goodput_core_seconds == 0.0
        assert res.wasted_core_seconds == pytest.approx(
            res.consumed_core_seconds
        )

    def test_certain_failure_exhausts_attempts(self):
        wl = make_workload([0], [1], [100])
        cfg = FaultConfig(
            fail_prob=1.0, max_attempts=3, backoff_base=5.0, seed=1
        )
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert res.status[0] == int(JobStatus.FAILED)
        assert res.attempts[0] == 3
        assert np.all(res.attempt_outcome == ATTEMPT_FAILED)

    def test_backoff_spaces_retries(self):
        wl = make_workload([0], [1], [100])
        cfg = FaultConfig(
            fail_prob=1.0,
            max_attempts=3,
            backoff_base=50.0,
            backoff_factor=2.0,
            seed=1,
        )
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        starts = res.attempt_start
        ends = starts + res.attempt_elapsed
        # gap after attempt k is backoff_base * factor**(k-1)
        assert starts[1] - ends[0] == pytest.approx(50.0)
        assert starts[2] - ends[1] == pytest.approx(100.0)


class TestNodeFailureProcess:
    #: one 4-core node, failures every ~300 s on average, quick repairs;
    #: constant backoff — a growing one makes late retries astronomically far
    CFG = dict(
        node_mtbf=300.0,
        node_mttr=30.0,
        n_nodes=1,
        backoff_base=1.0,
        backoff_factor=1.0,
    )

    def test_retries_rescue_node_killed_jobs(self):
        wl = make_workload(
            np.arange(20) * 10.0, np.full(20, 2), np.full(20, 200.0)
        )
        drop = FaultConfig(**self.CFG, max_attempts=1, seed=3)
        retry = FaultConfig(**self.CFG, max_attempts=8, seed=3)
        res_drop = simulate_with_faults(wl, 4, "fcfs", EASY, drop)
        res_retry = simulate_with_faults(wl, 4, "fcfs", EASY, retry)
        assert (res_drop.attempt_outcome == ATTEMPT_NODE_KILLED).any()
        assert res_retry.completed.sum() > res_drop.completed.sum()
        assert np.all(res_retry.status >= 0)

    def test_checkpoints_cut_waste_on_a_fixed_timeline(self):
        # one job on one node: with no intrinsic faults the node up/down
        # timeline depends only on the seed, so the two runs face the very
        # same failures and differ only in restart position
        wl = make_workload([0.0], [4], [2000.0])
        plain = FaultConfig(**self.CFG, max_attempts=50, seed=5)
        ckpt = FaultConfig(
            **self.CFG, max_attempts=50, checkpoint_interval=60.0, seed=5
        )
        res_plain = simulate_with_faults(wl, 4, "fcfs", EASY, plain)
        res_ckpt = simulate_with_faults(wl, 4, "fcfs", EASY, ckpt)
        assert (res_plain.attempt_outcome == ATTEMPT_NODE_KILLED).any()
        assert np.array_equal(
            res_plain.node_fail_times[:1], res_ckpt.node_fail_times[:1]
        )
        assert res_ckpt.end[0] <= res_plain.end[0]
        assert res_ckpt.wasted_core_seconds <= res_plain.wasted_core_seconds

    def test_node_kill_without_retry_reports_killed(self):
        wl = make_workload([0.0], [4], [5000.0])
        cfg = FaultConfig(node_mtbf=200.0, node_mttr=30.0, n_nodes=1, seed=2)
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert res.status[0] == int(JobStatus.KILLED)
        assert res.attempt_outcome[0] == ATTEMPT_NODE_KILLED
        assert res.completed.sum() == 0


class TestEngineFacade:
    def test_simulate_faults_kwarg_delegates(self):
        wl = make_workload([0, 1], [1, 1], [10, 10])
        res = simulate(wl, 4, "fcfs", EASY, faults=NO_FAULTS)
        assert hasattr(res, "attempts")  # FaultSimResult, not SimResult
        base = simulate(wl, 4, "fcfs", EASY)
        assert np.array_equal(res.start, base.start)

    def test_completed_attempts_are_logged(self):
        wl = make_workload([0, 1], [1, 1], [10, 20])
        res = simulate_with_faults(wl, 4, "fcfs", EASY, NO_FAULTS)
        assert np.all(res.attempt_outcome == ATTEMPT_COMPLETED)
        assert res.consumed_core_seconds == pytest.approx(30.0)
        assert res.wasted_core_seconds == 0.0


class TestResilienceMetrics:
    def test_zero_failure_metrics(self):
        from repro.sched import compute_resilience_metrics

        wl = make_workload([0, 0], [2, 2], [100, 100])
        res = simulate_with_faults(wl, 4, "fcfs", EASY, NO_FAULTS)
        rm = compute_resilience_metrics(res)
        assert rm.completed_fraction == 1.0
        assert rm.wasted_core_hours == 0.0
        assert rm.mean_attempts == 1.0
        assert rm.goodput_core_hours == pytest.approx(400.0 / 3600.0)
        # both jobs run simultaneously on a full cluster
        assert rm.effective_util == pytest.approx(1.0)
        payload = rm.as_dict()
        assert payload["n_jobs"] == 2


class TestStaticQueueOrder:
    """A resubmitted job re-enters the queue behind the jobs its
    ``(score, submit)`` ties with: the rank-ordered queue of a static
    policy has to reproduce that tie rule, through both its append path
    and its merge path, exactly as the fault oracle specifies it."""

    #: jobs 0-4 tie at (walltime 100, submit 0); job 5 arrives at 20 with
    #: the same walltime, job 6 at 150 with a shorter one.  One core, so
    #: every start is at its own instant; every first attempt fails and
    #: retries almost at once, so a retried job re-enters while the jobs
    #: it ties with still wait
    SUBMIT = [0, 0, 0, 0, 0, 20, 150]
    RUNTIME = [100, 100, 100, 100, 100, 100, 50]
    CFG = FaultConfig(fail_prob=1.0, max_attempts=2, backoff_base=1e-3, seed=0)

    #: (job, attempt) in start order
    EXPECTED = {
        # fcfs: each retry of a submit-0 job queues behind the other
        # submit-0 jobs and ahead of job 5, which was queued before it
        "fcfs": [
            (0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
            (0, 2), (1, 2), (2, 2), (3, 2), (4, 2),
            (5, 1), (6, 1), (5, 2), (6, 2),
        ],
        # sjf: the same, except that job 6 outranks everything when it
        # arrives; job 5 ties the retries' walltime but not their submit
        "sjf": [
            (0, 1), (1, 1), (2, 1), (3, 1), (6, 1), (4, 1), (6, 2),
            (0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (5, 2),
        ],
    }

    @pytest.mark.parametrize("policy", ["fcfs", "sjf"])
    def test_retry_queues_behind_equal_keys(self, policy):
        wl = make_workload(self.SUBMIT, [1] * 7, self.RUNTIME)
        rec = ColumnarRecorder()
        res = simulate_with_faults(wl, 1, policy, EASY, self.CFG, tracer=rec)
        ref = oracle_simulate_with_faults(wl, 1, policy, EASY, self.CFG)
        for name in _FAULT_FIELDS:
            assert np.array_equal(
                getattr(res, name), getattr(ref, name), equal_nan=True
            ), name
        assert res.to_dict() == ref.to_dict()

        events = rec.to_events()
        starts = [(e["job"], e["attempt"]) for e in events if e["kind"] == "start"]
        assert starts == self.EXPECTED[policy]
        # the stream's starts and attempt ends are the oracle's attempts
        assert [
            (e["t"], e["job"]) for e in events if e["kind"] == "start"
        ] == sorted(zip(ref.attempt_start.tolist(), ref.attempt_job.tolist()))
        assert [
            (e["job"], e["outcome"]) for e in events if e["kind"] == "finish"
        ] == [(j, "failed") for j in ref.attempt_job.tolist()]
        assert all(ref.attempt_outcome == ATTEMPT_FAILED)


class TestBackfillEarlyExit:
    """A blocked round whose queued jobs are all wider than the free cores
    backfills nothing; both engines skip the window scan then, and must
    still match their oracles."""

    # job 0 leaves 4 of 10 cores free and the 8-core head blocks; every
    # job behind a blocked head needs more cores than are free
    WL = dict(
        submit=[0, 1, 2, 3, 4], cores=[6, 8, 5, 6, 6],
        runtime=[100, 50, 30, 30, 30], walltime=[100, 50, 60, 60, 60],
    )

    @pytest.mark.parametrize("policy", ["fcfs", "wfp3"])
    @pytest.mark.parametrize("backfill", [EASY, relaxed(0.5)], ids=["easy", "relaxed"])
    def test_wide_queue_backfills_nothing(self, policy, backfill):
        wl = make_workload(**self.WL)
        rec = ColumnarRecorder()
        res = simulate(wl, 10, policy, backfill, track_queue=True, tracer=rec)
        ref = oracle_simulate(wl, 10, policy, backfill, track_queue=True)
        for name in ("start", "promised", "backfilled", "queue_samples"):
            assert np.array_equal(
                getattr(res, name), getattr(ref, name), equal_nan=True
            ), name
        kinds = [e["kind"] for e in rec.to_events()]
        assert "reservation" in kinds and "backfill" not in kinds
        assert not res.backfilled.any()

        cfg = FaultConfig(fail_prob=0.5, max_attempts=2, backoff_base=1.0, seed=4)
        for faults in (NO_FAULTS, cfg):
            fres = simulate_with_faults(
                wl, 10, policy, backfill, faults, track_queue=True
            )
            fref = oracle_simulate_with_faults(
                wl, 10, policy, backfill, faults, track_queue=True
            )
            for name in ("start", "end", "attempt_job", "attempt_start",
                         "promised", "backfilled", "queue_samples"):
                assert np.array_equal(
                    getattr(fres, name), getattr(fref, name), equal_nan=True
                ), name
            assert not fres.backfilled.any()
