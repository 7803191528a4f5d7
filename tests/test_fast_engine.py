"""Differential tests pinning the vectorized engines to their references.

:mod:`repro.sched.fast` is the EASY-family engine behind
:func:`repro.sched.simulate`; its reference is the O(n²) oracle
(:mod:`repro.testkit.oracle`), as it is for the conservative engine
(:func:`repro.sched.simulate_conservative`) and, through the fault oracle,
for the fault engine (:func:`repro.sched.simulate_with_faults`).  The one
shared contract is **bit-identical results** (docs/PERFORMANCE.md).  This
suite enforces it:

* seeded differential matrices — every queue policy crossed with every
  backfill mode against the oracle on adversarial fuzz workloads
  (multi-user so fair-share state is exercised), conservative
  backfilling across every policy, and the fault engine across
  zero-failure and calibrated fault configs;
* deep-queue burst stress, where the vectorized backfill scan and the
  amortized queue compaction actually kick in;
* hypothesis properties over arbitrary small workloads, running the
  shared invariant battery (:mod:`repro.testkit.invariants`) — including
  the fault battery's conservation sweep over failed/restarted attempts;
* the satellite bugfixes: fair-share usage pruning (``USAGE_EPS``) and
  the normalized ``queue_samples`` / fault-array dtypes;
* the dispatch/wiring surfaces: ``simulate`` (including the ``faults=``
  path), ``run_sweep``, the fuzzer's per-configuration routing and the
  CLI.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.runner import SimTask, run_sweep
from repro.sched import (
    EASY,
    NO_BACKFILL,
    NO_FAULTS,
    FaultConfig,
    SimWorkload,
    adaptive_relaxed,
    relaxed,
    simulate,
    simulate_conservative,
    simulate_fast,
    simulate_with_faults,
)
from repro.sched.engine import USAGE_EPS
from repro.testkit import (
    FUZZ_POLICIES,
    check_case,
    fuzz,
    oracle_simulate,
    oracle_simulate_with_faults,
    random_workload,
)
from repro.testkit.fuzz import FUZZ_FAULT_CONFIGS
from repro.testkit.invariants import check_fault_result, check_result

CAPACITY = 16

#: every queue policy the engines accept, stateless and stateful alike
ALL_POLICIES = (
    "fcfs", "sjf", "ljf", "smallest", "largest", "wfp3", "unicef", "f1",
    "fairshare",
)

BACKFILLS = {
    "none": NO_BACKFILL,
    "easy": EASY,
    "relaxed": relaxed(0.5),
    "adaptive": adaptive_relaxed(0.4),
}


def _burst_workload(n: int = 300, seed: int = 0) -> SimWorkload:
    """Bursty submissions against a tiny cluster: queues go deep."""
    rng = np.random.default_rng(seed)
    submit = np.repeat(np.arange(n // 20) * 50.0, 20)[:n]
    runtime = rng.integers(1, 400, n).astype(float)
    return SimWorkload(
        submit=submit,
        cores=rng.integers(1, 8, n).astype(np.int64),
        runtime=runtime,
        walltime=runtime + rng.integers(0, 200, n),
        user=rng.integers(0, 5, n).astype(np.int64),
    )


def _assert_identical(ref, fast, label=""):
    assert np.array_equal(ref.start, fast.start), f"{label}: start"
    assert np.array_equal(
        ref.promised, fast.promised, equal_nan=True
    ), f"{label}: promised"
    assert np.array_equal(ref.backfilled, fast.backfilled), f"{label}: backfilled"
    assert np.array_equal(
        ref.queue_samples, fast.queue_samples
    ), f"{label}: queue_samples"
    assert np.array_equal(
        ref.queue_sample_times, fast.queue_sample_times
    ), f"{label}: queue_sample_times"


# ----------------------------------------------------------------------
# bit-identity


class TestFastMatchesReference:
    """The EASY engine against its reference, the oracle, field by field."""

    def test_differential_matrix(self):
        """Every policy x backfill on seeded adversarial workloads."""
        for case in range(25):
            rng = np.random.default_rng((42, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for policy in ALL_POLICIES:
                for bf_name, bf in BACKFILLS.items():
                    ref = oracle_simulate(
                        wl, CAPACITY, policy, bf, track_queue=True
                    )
                    fast = simulate(
                        wl, CAPACITY, policy, bf, track_queue=True
                    )
                    _assert_identical(
                        ref, fast, f"case {case} {policy}+{bf_name}"
                    )

    def test_deep_queue_bursts(self):
        """Burst workloads exercise compaction + the vectorized scan."""
        wl = _burst_workload()
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            ref = oracle_simulate(wl, 8, policy, EASY, track_queue=True)
            fast = simulate(wl, 8, policy, EASY, track_queue=True)
            _assert_identical(ref, fast, policy)

    def test_kill_at_walltime(self):
        wl = _burst_workload(seed=3)
        for kill in (False, True):
            ref = oracle_simulate(
                wl.clipped_to_walltime() if kill else wl, 8, "sjf", EASY
            )
            fast = simulate(wl, 8, "sjf", EASY, kill_at_walltime=kill)
            _assert_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        bf=st.sampled_from(sorted(BACKFILLS)),
        capacity=st.integers(2, 24),
    )
    def test_property_bit_identical(self, seed, policy, bf, capacity):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, capacity=capacity)
        ref = oracle_simulate(
            wl, capacity, policy, BACKFILLS[bf], track_queue=True
        )
        fast = simulate(wl, capacity, policy, BACKFILLS[bf], track_queue=True)
        _assert_identical(ref, fast, f"{policy}+{bf}@{capacity}")


# ----------------------------------------------------------------------
# bit-identity: conservative backfilling

#: every array field of a FaultSimResult, compared bit-for-bit
FAULT_FIELDS = (
    "start", "end", "status", "attempts", "promised", "backfilled",
    "attempt_job", "attempt_start", "attempt_elapsed", "attempt_outcome",
    "node_fail_times", "node_fail_nodes", "node_repair_times",
    "queue_samples", "queue_sample_times",
)

#: calibrated configuration: node churn + intrinsic faults + retries +
#: checkpointing, all active on fuzz-sized workloads
CALIBRATED_FAULTS = FaultConfig(
    node_mtbf=150.0,
    node_mttr=60.0,
    n_nodes=4,
    fail_prob=0.25,
    kill_prob=0.1,
    max_attempts=4,
    backoff_base=3.0,
    checkpoint_interval=40.0,
    seed=17,
)


def _assert_fault_identical(ref, fast, label=""):
    for name in FAULT_FIELDS:
        a, b = getattr(ref, name), getattr(fast, name)
        assert a.shape == b.shape and np.array_equal(
            a, b, equal_nan=True
        ), f"{label}: {name}"


def _conservative_oracle(workload, capacity, policy, **kw):
    return oracle_simulate(
        workload, capacity, policy, engine="conservative", **kw
    )


class TestFastConservativeMatchesReference:
    """The conservative engine against the oracle, field by field; the
    300-job bursts live in ``tests/goldens/conservative_policies.json``
    (the oracle needs ~30 s per run there)."""

    def test_differential_matrix(self):
        """Every queue policy on seeded adversarial workloads — the
        wide-job draws in ``random_workload`` force dense reservation
        chains through the profile rebuild."""
        for case in range(12):
            rng = np.random.default_rng((77, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for policy in ALL_POLICIES:
                ref = _conservative_oracle(
                    wl, CAPACITY, policy, track_queue=True
                )
                fast = simulate_conservative(
                    wl, CAPACITY, policy, track_queue=True
                )
                _assert_identical(ref, fast, f"case {case} {policy}")

    def test_deep_queue_bursts(self):
        """Five bursts of 20 jobs on 8 cores: ~100-deep queues."""
        wl = _burst_workload(n=100)
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            ref = _conservative_oracle(wl, 8, policy, track_queue=True)
            fast = simulate_conservative(wl, 8, policy, track_queue=True)
            _assert_identical(ref, fast, policy)

    def test_kill_at_walltime(self):
        """Halved walltimes, restored after construction (``SimWorkload``
        clamps walltime >= runtime), so the kill clips real jobs."""
        wl = _burst_workload(n=100, seed=3)
        wl.walltime = wl.walltime * 0.5
        assert np.any(wl.runtime > wl.walltime)
        for kill in (False, True):
            ref = _conservative_oracle(
                wl.clipped_to_walltime() if kill else wl, 8, "sjf"
            )
            fast = simulate_conservative(wl, 8, "sjf", kill_at_walltime=kill)
            _assert_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        capacity=st.integers(2, 24),
    )
    def test_property_bit_identical_and_invariant(self, seed, policy, capacity):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, capacity=capacity)
        ref = _conservative_oracle(wl, capacity, policy, track_queue=True)
        fast = simulate_conservative(wl, capacity, policy, track_queue=True)
        _assert_identical(ref, fast, f"{policy}@{capacity}")
        assert check_result(fast) == []


# ----------------------------------------------------------------------
# bit-identity: fault injection


class TestFastFaultsMatchesReference:
    """The fault engine against its reference, the fault oracle, on
    every array of the result."""

    def test_differential_matrix(self):
        """Zero-failure and calibrated fault configs across policies and
        backfill modes; every array field of the result must match."""
        for case in range(8):
            rng = np.random.default_rng((88, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for cfg_name, cfg in (
                ("zero", NO_FAULTS),
                ("calibrated", CALIBRATED_FAULTS),
            ):
                for policy in ALL_POLICIES:
                    for bf_name, bf in BACKFILLS.items():
                        ref = oracle_simulate_with_faults(
                            wl, CAPACITY, policy, bf, cfg, track_queue=True
                        )
                        fast = simulate_with_faults(
                            wl, CAPACITY, policy, bf, cfg, track_queue=True
                        )
                        _assert_fault_identical(
                            ref, fast,
                            f"case {case} {cfg_name} {policy}+{bf_name}",
                        )

    def test_zero_failure_equals_plain_fast(self):
        """With NO_FAULTS the fault engine reduces to the plain engine
        (one attempt per job, identical schedule and queue samples)."""
        for case in range(6):
            rng = np.random.default_rng((89, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for policy in ("fcfs", "sjf", "fairshare"):
                plain = simulate(wl, CAPACITY, policy, EASY, track_queue=True)
                faulty = simulate_with_faults(
                    wl, CAPACITY, policy, EASY, NO_FAULTS, track_queue=True
                )
                for name in (
                    "start", "promised", "backfilled",
                    "queue_samples", "queue_sample_times",
                ):
                    assert np.array_equal(
                        getattr(plain, name), getattr(faulty, name),
                        equal_nan=True,
                    ), f"case {case} {policy}: {name}"
                assert np.all(faulty.attempts == 1)

    def test_fuzz_fault_configs_all_active(self):
        """The fuzz matrix exercises retries and node failures somewhere —
        a matrix of configs that never fires is a silent coverage hole."""
        saw_retry = saw_node_fail = False
        for case in range(10):
            rng = np.random.default_rng((90, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for cfg in FUZZ_FAULT_CONFIGS:
                res = simulate_with_faults(wl, CAPACITY, "fcfs", EASY, cfg)
                saw_retry |= bool(np.any(res.attempts > 1))
                saw_node_fail |= len(res.node_fail_times) > 0
        assert saw_retry and saw_node_fail

    def test_kill_at_walltime(self):
        """Halved walltimes, restored after construction, so the kill
        clips real jobs before the faults strike."""
        wl = _burst_workload(seed=5)
        wl.walltime = wl.walltime * 0.5
        assert np.any(wl.runtime > wl.walltime)
        for kill in (False, True):
            ref = oracle_simulate_with_faults(
                wl.clipped_to_walltime() if kill else wl, 8, "sjf", EASY,
                CALIBRATED_FAULTS,
            )
            fast = simulate_with_faults(
                wl, 8, "sjf", EASY, CALIBRATED_FAULTS,
                kill_at_walltime=kill,
            )
            _assert_fault_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        capacity=st.integers(2, 24),
        cfg_index=st.integers(0, len(FUZZ_FAULT_CONFIGS) - 1),
    )
    def test_property_bit_identical_and_invariant(
        self, seed, policy, capacity, cfg_index
    ):
        """Bit-identity plus the fault invariant battery — the
        conservation sweep inside ``check_fault_result`` accounts every
        failed and restarted attempt's core-seconds."""
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, capacity=capacity)
        cfg = FUZZ_FAULT_CONFIGS[cfg_index]
        ref = oracle_simulate_with_faults(
            wl, capacity, policy, EASY, cfg, track_queue=True
        )
        fast = simulate_with_faults(
            wl, capacity, policy, EASY, cfg, track_queue=True
        )
        _assert_fault_identical(ref, fast, f"{policy}@{capacity}[{cfg_index}]")
        assert check_fault_result(fast) == []


# ----------------------------------------------------------------------
# satellite bugfix: fair-share usage pruning


class TestUsagePruning:
    def test_pruned_usage_matches_fast_dense_zeroing(self):
        """Two bursts ~100 half-lives apart: all usage decays through the
        epsilon between them, so the dict prune (oracle) and the dense
        zeroing (fast) must agree — and the second burst must schedule as
        if no history existed."""
        half_life_s = 24 * 3600.0  # FairSharePolicy default
        gap = 100 * half_life_s
        n = 12
        submit = np.concatenate([np.zeros(6), np.full(6, gap)])
        wl = SimWorkload(
            submit=submit,
            cores=np.full(n, 4, dtype=np.int64),
            runtime=np.full(n, 600.0),
            walltime=np.full(n, 900.0),
            user=np.array([0, 1, 2, 0, 1, 2, 2, 1, 0, 2, 1, 0]),
        )
        ref = oracle_simulate(wl, 8, "fairshare", EASY)
        fast = simulate(wl, 8, "fairshare", EASY)
        _assert_identical(ref, fast, "pruned fairshare")
        # with usage fully decayed, the second burst is a clean slate:
        # fair-share falls back to the (score, submit, index) tie-break,
        # i.e. submission order
        second = ref.start[6:]
        assert np.all(np.diff(second) >= 0)

    def test_epsilon_is_far_below_real_usage(self):
        # any real job credits >= 1 core-second; the prune threshold must
        # not be reachable by anything but long-idle decay
        assert USAGE_EPS < 1e-9


# ----------------------------------------------------------------------
# satellite bugfix: queue_samples dtype round trip


class TestQueueSampleDtypes:
    def _check(self, result):
        assert result.queue_samples.dtype == np.int64
        assert result.queue_sample_times.dtype == np.float64

    def test_all_engines_and_defaults(self):
        rng = np.random.default_rng(0)
        wl = random_workload(rng, capacity=CAPACITY)
        for res in (
            simulate(wl, CAPACITY, "fcfs", EASY, track_queue=True),
            oracle_simulate(wl, CAPACITY, "fcfs", EASY, track_queue=True),
            simulate_conservative(wl, CAPACITY, "fcfs", track_queue=True),
            simulate(wl, CAPACITY, "fcfs", EASY),  # default factories
            oracle_simulate(wl, CAPACITY, "fcfs", EASY),
        ):
            self._check(res)

    def test_fault_engine_dtype(self):
        rng = np.random.default_rng(1)
        wl = random_workload(rng, capacity=CAPACITY)
        cfg = FaultConfig(node_mtbf=1800.0, n_nodes=4, seed=7)
        res = simulate_with_faults(
            wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True
        )
        self._check(res)

    def test_fault_array_dtypes_canonical(self):
        """Every FaultSimResult array carries its canonical dtype from the
        engine and the oracle — __post_init__ pins them, so a
        platform-default int32 can never leak into a cached payload."""
        from repro.sched.faults import FaultSimResult

        expected = dict(FaultSimResult._ARRAY_DTYPES)
        rng = np.random.default_rng(3)
        wl = random_workload(rng, capacity=CAPACITY)
        cfg = FaultConfig(node_mtbf=200.0, n_nodes=4, fail_prob=0.2, seed=6)
        for res in (
            simulate_with_faults(wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True),
            oracle_simulate_with_faults(wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True),
        ):
            for name, dtype in expected.items():
                assert getattr(res, name).dtype == dtype, name

    def test_fault_post_init_coerces_stray_dtypes(self):
        """Constructing a result from lists / int32 arrays (as a cache
        deserializer would) yields the same canonical dtypes."""
        from repro.sched.faults import FaultSimResult

        n = 3
        wl = SimWorkload(
            submit=np.arange(n, dtype=float),
            cores=np.ones(n, dtype=np.int64),
            runtime=np.ones(n),
            walltime=np.ones(n),
            user=np.zeros(n, dtype=np.int64),
        )
        res = FaultSimResult(
            workload=wl,
            capacity=4,
            faults=NO_FAULTS,
            start=[0.0, 1.0, 2.0],
            end=np.ones(n, dtype=np.float32),
            status=np.zeros(n, dtype=np.int32),
            attempts=[1, 1, 1],
            promised=np.full(n, np.nan),
            backfilled=np.zeros(n, dtype=np.uint8),
        )
        assert res.start.dtype == np.float64
        assert res.end.dtype == np.float64
        assert res.status.dtype == np.int64
        assert res.attempts.dtype == np.int64
        assert res.backfilled.dtype == np.bool_
        assert res.attempt_job.dtype == np.int64
        assert res.queue_samples.dtype == np.int64

    def test_round_trip_through_sweep_payload(self, tmp_path):
        """max_queue survives the cached JSON round trip unchanged."""
        rng = np.random.default_rng(2)
        wl = random_workload(rng, capacity=CAPACITY)
        task = SimTask(
            label="rt", workload=wl, capacity=CAPACITY, track_queue=True
        )
        cold = run_sweep([task], cache=tmp_path / "c")[0]
        warm = run_sweep([task], cache=tmp_path / "c")[0]
        assert warm.cached and not cold.cached
        assert cold.max_queue == warm.max_queue
        assert cold.payload() == warm.payload()


# ----------------------------------------------------------------------
# dispatch + sweep wiring


class TestEngineDispatch:
    def _wl(self):
        return random_workload(np.random.default_rng(5), capacity=CAPACITY)

    def test_simulate_engine_fast_equals_direct_call(self):
        wl = self._wl()
        _assert_identical(
            simulate(wl, CAPACITY, "sjf", EASY),
            simulate_fast(wl, CAPACITY, "sjf", EASY),
        )

    def test_unknown_engine_rejected(self):
        """No entry point takes an engine argument: there is one engine."""
        from repro.experiments import ext_policies, table2

        wl = self._wl()
        with pytest.raises(TypeError, match="engine"):
            simulate(wl, CAPACITY, engine="fast")
        with pytest.raises(TypeError, match="engine"):
            SimTask(label="t", workload=wl, capacity=CAPACITY, engine="fast")
        with pytest.raises(TypeError, match="engine"):
            table2.run(engine="fast")
        with pytest.raises(TypeError, match="engine"):
            ext_policies.run(engine="fast")
        assert "engine" not in SimTask(
            label="t", workload=wl, capacity=CAPACITY
        ).canonical()

    def test_engine_flags_rejected(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        for argv in (
            ["simulate", "t.swf", "--engine", "fast"],
            ["profile", "t.swf", "--engine", "fast"],
            ["fuzz", "--engine", "fast"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        with pytest.raises(SystemExit) as exc:
            experiments_main(["table2", "--engine", "fast"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_fast_dispatches_faults(self):
        """simulate(faults=...) routes to the fault engine and matches the
        fault oracle bit for bit."""
        wl = self._wl()
        cfg = FaultConfig(node_mtbf=3600.0, n_nodes=4, seed=2)
        via_dispatch = simulate(wl, CAPACITY, faults=cfg, track_queue=True)
        direct = simulate_with_faults(
            wl, CAPACITY, faults=cfg, track_queue=True
        )
        reference = oracle_simulate_with_faults(
            wl, CAPACITY, faults=cfg, track_queue=True
        )
        _assert_fault_identical(via_dispatch, direct, "dispatch vs direct")
        _assert_fault_identical(via_dispatch, reference, "dispatch vs ref")

    def test_fast_accepts_event_hooks(self):
        from repro.obs import Metrics, RingBufferTracer, check_events

        wl = self._wl()
        tracer = RingBufferTracer(capacity=1 << 16)
        metrics = Metrics()
        res = simulate(wl, CAPACITY, tracer=tracer, metrics=metrics)
        assert check_events(tracer.events) == []
        payload = metrics.to_dict()
        assert payload["counters"]["sim_jobs_started_total"] == len(wl.submit)
        _assert_identical(res, simulate(wl, CAPACITY))

    def test_fast_accepts_profiler(self):
        from repro.obs import Profiler

        prof = Profiler()
        simulate(self._wl(), CAPACITY, profiler=prof)
        report = prof.report()
        assert "simulate" in report


class TestSweepWiring:
    def test_fault_task_round_trip_through_cache(self, tmp_path):
        """A fault task's payload survives the JSON cache."""
        wl = random_workload(np.random.default_rng(9), capacity=CAPACITY)
        task = SimTask(
            label="rt",
            workload=wl,
            capacity=CAPACITY,
            faults=FaultConfig(node_mtbf=300.0, n_nodes=4, seed=5),
            track_queue=True,
        )
        cold = run_sweep([task], cache=tmp_path / "c")[0]
        warm = run_sweep([task], cache=tmp_path / "c")[0]
        assert warm.cached and not cold.cached
        assert cold.payload() == warm.payload()


# ----------------------------------------------------------------------
# fuzzer: every implementation of a configuration faces the oracle


class TestFuzzImpl:
    def test_fast_campaign_clean(self):
        report = fuzz(
            policies=("fcfs", "sjf", "easy", "sjf-easy"), budget=40
        )
        assert report.ok, report.describe()
        assert report.runs == 40 * 4

    def test_fast_conservative_campaign_clean(self):
        report = fuzz(
            policies=("conservative", "sjf-conservative", "wfp3-conservative"),
            budget=30,
        )
        assert report.ok, report.describe()

    def test_fast_faults_campaign_clean(self):
        """EASY-family cases include the fault-engine differential."""
        report = fuzz(policies=("fcfs", "easy"), budget=6)
        assert report.ok, report.describe()

    def test_fast_rejects_conservative(self):
        """Every conservative configuration runs the one conservative
        engine, not the EASY engine."""
        wl = random_workload(np.random.default_rng(0))
        for policy in FUZZ_POLICIES.values():
            if policy.engine == "conservative":
                runs = policy.run_engines(wl, CAPACITY)
                assert list(runs) == ["simulate_conservative"]

    def test_fast_conservative_rejects_easy_family(self):
        """Every EASY-family configuration runs the one EASY engine."""
        wl = random_workload(np.random.default_rng(0))
        for policy in FUZZ_POLICIES.values():
            if policy.engine == "easy":
                assert list(policy.run_engines(wl, CAPACITY)) == ["simulate"]

    def test_fast_faults_rejects_conservative(self, monkeypatch):
        """The fault-engine differential runs for EASY-family cases only."""
        # the package re-exports the fuzz() function under the module name
        fuzz_mod = importlib.import_module("repro.testkit.fuzz")
        calls = []
        monkeypatch.setattr(
            fuzz_mod, "_check_fault_case",
            lambda *args: calls.append(args[2].name) or [],
        )
        wl = random_workload(np.random.default_rng(0), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["conservative"]) == []
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["easy"]) == []
        assert calls == ["easy"]

    def test_unknown_impl_rejected(self):
        """The fuzzer takes no implementation argument: every case checks
        every implementation of its configuration."""
        wl = random_workload(np.random.default_rng(0), capacity=CAPACITY)
        with pytest.raises(TypeError, match="engine_impl"):
            fuzz(policies=("fcfs",), engine_impl="fast")
        with pytest.raises(TypeError, match="impl"):
            check_case(wl, CAPACITY, FUZZ_POLICIES["fcfs"], impl="fast")

    def test_check_case_fast(self):
        wl = random_workload(np.random.default_rng(3), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["easy"]) == []

    def test_check_case_fast_conservative(self):
        wl = random_workload(np.random.default_rng(4), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["conservative"]) == []

    def test_check_case_fast_faults(self):
        wl = random_workload(np.random.default_rng(5), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["sjf-easy"]) == []


# ----------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def swf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fast_cli") / "trace.swf"
    assert (
        main(["generate", "theta", "-o", str(path), "--days", "2"]) == 0
    )
    return path


class TestCliEngineFlag:
    def test_trace_out_jsonl_and_npz_decode_identically(
        self, swf_path, tmp_path, capsys
    ):
        """One run exported as JSONL and as columnar NPZ decodes to the
        same event stream."""
        from repro.obs import load_events

        jsonl = tmp_path / "events.jsonl"
        npz = tmp_path / "events.npz"
        for path in (jsonl, npz):
            assert main(
                ["simulate", str(swf_path), "--trace-out", str(path)]
            ) == 0
        capsys.readouterr()
        assert load_events(jsonl) == load_events(npz)

    def test_fast_profile_flag_ok(self, swf_path, capsys):
        assert main(["simulate", str(swf_path), "--profile"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_profile_subcommand_fast(self, swf_path, capsys):
        assert main(["profile", str(swf_path)]) == 0
        out = capsys.readouterr().out
        assert "hot-path" in out
        assert "policy_sort" in out

    def test_fuzz_fast_smoke(self, capsys):
        assert main(
            ["fuzz", "--budget", "5", "--policy", "fcfs,sjf,easy,sjf-easy"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 policy configuration(s)" in out
        assert "sjf-easy" not in out  # label only in divergences
        assert "ok:" in out

    def test_fuzz_fast_conservative_smoke(self, capsys):
        assert main(["fuzz", "--budget", "5", "--policy", "conservative"]) == 0
        out = capsys.readouterr().out
        assert "1 policy configuration(s)" in out
        assert "ok:" in out

    def test_fuzz_fast_faults_smoke(self, capsys):
        """The default campaign covers every configuration."""
        assert main(["fuzz", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert f"{len(FUZZ_POLICIES)} policy configuration(s)" in out
        assert "ok:" in out

    def test_metrics_out_payload_identical(
        self, swf_path, tmp_path, capsys, reference_golden
    ):
        """--metrics-out writes, byte for byte, the file the reference
        loop wrote for this trace (instrument-for-instrument, sample-for-
        sample)."""
        path = tmp_path / "metrics.json"
        assert main(
            ["simulate", str(swf_path), "--metrics-out", str(path)]
        ) == 0
        capsys.readouterr()
        assert path.read_text() == reference_golden["cli_metrics_out"]
