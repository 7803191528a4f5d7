"""Parallel sweep runner tests: determinism, caching, fingerprints.

The load-bearing guarantees (ISSUE satellite + tentpole contract):

* ``run_sweep`` at any worker count returns results **bit-identical** to a
  serial run;
* a warm cache serves every cell from disk (``cached=True``) without
  running a single simulation;
* fingerprints identify a cell by its physics (workload, capacity, policy,
  backfill, faults, engine code), never by its label.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.runner import (
    ResultCache,
    SimTask,
    TaskResult,
    WorkloadSpec,
    code_version,
    derive_seed,
    run_sweep,
    stable_hash,
    workload_fingerprint,
)
from repro.sched import EASY, NO_BACKFILL, FaultConfig, SimWorkload, relaxed


def wl(submit, cores, runtime, walltime=None):
    submit = np.asarray(submit, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=np.asarray(cores, dtype=np.int64),
        runtime=runtime,
        walltime=np.asarray(walltime, dtype=float) if walltime is not None else runtime,
        user=np.zeros(len(submit), dtype=np.int64),
    )


def small_workload(n=40, seed=7):
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0, 3600.0, n))
    runtime = rng.uniform(60.0, 1800.0, n)
    return wl(submit, rng.integers(1, 8, n), runtime, runtime * 1.5)


def grid_tasks(workload, policies=("fcfs", "sjf", "f1"), capacity=16):
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


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "theta", 0) == derive_seed(3, "theta", 0)

    def test_sensitive_to_every_part(self):
        base = derive_seed(3, "theta", 0)
        assert derive_seed(4, "theta", 0) != base
        assert derive_seed(3, "mira", 0) != base
        assert derive_seed(3, "theta", 1) != base

    def test_non_negative_63_bit(self):
        for base in (0, 1, 2**31):
            s = derive_seed(base, "x")
            assert 0 <= s < 2**63


class TestFingerprints:
    def test_label_excluded(self):
        w = small_workload()
        a = SimTask(label="a", workload=w, capacity=16)
        b = SimTask(label="b", workload=w, capacity=16)
        assert a.fingerprint() == b.fingerprint()

    def test_policy_and_backfill_included(self):
        w = small_workload()
        base = SimTask(label="x", workload=w, capacity=16)
        assert (
            SimTask(label="x", workload=w, policy="sjf", capacity=16).fingerprint()
            != base.fingerprint()
        )
        assert (
            SimTask(
                label="x", workload=w, backfill=relaxed(0.2), capacity=16
            ).fingerprint()
            != base.fingerprint()
        )
        assert (
            SimTask(label="x", workload=w, capacity=32).fingerprint()
            != base.fingerprint()
        )

    def test_workload_data_included(self):
        a = SimTask(label="x", workload=small_workload(seed=1), capacity=16)
        b = SimTask(label="x", workload=small_workload(seed=2), capacity=16)
        assert a.fingerprint() != b.fingerprint()

    def test_spec_workload_canonical(self):
        spec = WorkloadSpec(system="theta", days=1.0, seed=3, max_jobs=100)
        task = SimTask(label="x", workload=spec)
        canon = task.canonical()
        assert canon["workload"]["kind"] == "synth"
        assert canon["workload"]["system"] == "theta"
        assert canon["code"] == code_version()
        # canonical form is JSON-serializable by construction
        json.dumps(canon)

    def test_inline_workload_requires_capacity(self):
        task = SimTask(label="x", workload=small_workload())
        with pytest.raises(ValueError, match="explicit capacity"):
            task.fingerprint()

    def test_stable_hash_key_order_invariant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_workload_fingerprint_detects_changes(self):
        w = small_workload()
        fp = workload_fingerprint(w)
        assert fp == workload_fingerprint(small_workload())
        bumped = dataclasses.replace(w, submit=w.submit + 1.0)
        assert workload_fingerprint(bumped) != fp


class TestRunSweep:
    def test_parallel_bit_identical_to_serial(self):
        w = small_workload()
        serial = run_sweep(grid_tasks(w), jobs=1)
        fanned = run_sweep(grid_tasks(w), jobs=2)
        assert [r.label for r in fanned] == [r.label for r in serial]
        for s, p in zip(serial, fanned):
            assert p.payload() == s.payload()
            assert p.fingerprint == s.fingerprint

    def test_metrics_roundtrip_dataclass(self):
        (r,) = run_sweep(grid_tasks(small_workload(), policies=("fcfs",)))
        m = r.schedule_metrics()
        assert m.as_dict() == r.metrics
        assert m.n_jobs == 40

    def test_fault_cells_report_resilience(self):
        w = small_workload()
        cfg = FaultConfig(
            node_mtbf=4 * 3600.0,
            node_mttr=1800.0,
            n_nodes=4,
            max_attempts=2,
            seed=derive_seed(0, "faults"),
        )
        (r,) = run_sweep(
            [SimTask(label="f", workload=w, faults=cfg, capacity=16)]
        )
        rm = r.resilience_metrics()
        assert rm is not None
        assert rm.as_dict() == r.resilience
        # fault runs at two worker counts agree too
        again = run_sweep(
            [SimTask(label="f", workload=w, faults=cfg, capacity=16)], jobs=2
        )
        assert again[0].payload() == r.payload()

    def test_track_queue_surfaces_max_queue(self):
        (r,) = run_sweep(
            [
                SimTask(
                    label="q",
                    workload=small_workload(),
                    backfill=NO_BACKFILL,
                    capacity=8,
                    track_queue=True,
                )
            ]
        )
        assert r.max_queue is not None and r.max_queue > 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(grid_tasks(small_workload()), jobs=0)

    def test_order_preserved_with_mixed_hits(self, tmp_path):
        w = small_workload()
        cache = ResultCache(tmp_path / "cache")
        # warm only the middle cell
        run_sweep(grid_tasks(w, policies=("sjf",)), cache=cache)
        results = run_sweep(grid_tasks(w), cache=cache)
        assert [r.label for r in results] == ["fcfs", "sjf", "f1"]
        assert [r.cached for r in results] == [False, True, False]

    def test_observed_sweep_bit_identical_to_unobserved_serial(self, tmp_path):
        """RunRegistry + ProgressReporter attached change nothing (tentpole)."""
        from repro.obs import JsonlProgress, RunRegistry

        import io

        w = small_workload()
        baseline = run_sweep(grid_tasks(w), jobs=1)
        for jobs in (1, 2):
            with RunRegistry(tmp_path / f"runs-{jobs}.jsonl") as reg:
                observed = run_sweep(
                    grid_tasks(w),
                    jobs=jobs,
                    registry=reg,
                    progress=JsonlProgress(io.StringIO()),
                )
            assert [r.label for r in observed] == [r.label for r in baseline]
            for o, b in zip(observed, baseline):
                assert o.payload() == b.payload()
                assert o.fingerprint == b.fingerprint

    def test_wall_and_worker_excluded_from_payload(self):
        (r,) = run_sweep(grid_tasks(small_workload(), policies=("fcfs",)))
        assert r.wall_seconds > 0
        assert r.worker not in ("", "MainProcess")  # ran in a child worker
        assert "wall_seconds" not in r.payload()
        assert "worker" not in r.payload()


class TestResultCache:
    def test_warm_cache_serves_every_cell(self, tmp_path):
        w = small_workload()
        cache_dir = tmp_path / "cache"
        cold = run_sweep(grid_tasks(w), cache=cache_dir)
        assert not any(r.cached for r in cold)

        cache = ResultCache(cache_dir)
        warm = run_sweep(grid_tasks(w), cache=cache)
        assert all(r.cached for r in warm), "warm run must not simulate"
        assert cache.hits == 3 and cache.misses == 0
        for a, b in zip(cold, warm):
            assert a.payload() == b.payload()

    def test_cache_accepts_str_and_path(self, tmp_path):
        w = small_workload()
        run_sweep(grid_tasks(w, policies=("fcfs",)), cache=str(tmp_path / "c"))
        (r,) = run_sweep(grid_tasks(w, policies=("fcfs",)), cache=tmp_path / "c")
        assert r.cached

    def test_layout_two_hex_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = stable_hash({"x": 1})
        cache.put(fp, {"v": 1})
        assert (tmp_path / fp[:2] / f"{fp}.json").is_file()
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = stable_hash({"x": 2})
        cache.put(fp, {"v": 1})
        (tmp_path / fp[:2] / f"{fp}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(fp) is None
        assert cache.misses == 1

    def test_corrupt_entry_quarantined_not_rehit(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = stable_hash({"x": 3})
        cache.put(fp, {"v": 1})
        entry = tmp_path / fp[:2] / f"{fp}.json"
        entry.write_text("{torn", encoding="utf-8")
        assert cache.get(fp) is None
        assert cache.corrupt == 1
        # the damaged bytes moved aside for inspection...
        quarantine = entry.with_name(entry.name + ".corrupt")
        assert quarantine.read_text(encoding="utf-8") == "{torn"
        assert not entry.exists()
        assert cache.quarantined == [quarantine]
        # ...and quarantined entries don't count as cached entries
        assert len(cache) == 0
        # a rewrite heals the slot
        cache.put(fp, {"v": 2})
        assert cache.get(fp) == {"v": 2}

    def test_non_object_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = stable_hash({"x": 4})
        cache.put(fp, {"v": 1})
        (tmp_path / fp[:2] / f"{fp}.json").write_text("[1, 2]", encoding="utf-8")
        assert cache.get(fp) is None
        assert cache.corrupt == 1

    def test_fsync_mode_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path, fsync=True)
        fp = stable_hash({"x": 5})
        cache.put(fp, {"v": 42})
        assert cache.get(fp) == {"v": 42}

    def test_code_version_in_fingerprint_guards_staleness(self):
        # the fingerprint embeds code_version(); a different engine hash
        # must yield a different fingerprint for the same task
        task = SimTask(label="x", workload=small_workload(), capacity=16)
        import repro.runner.cache as cache_mod

        fp = task.fingerprint()
        old = cache_mod._CODE_VERSION
        try:
            cache_mod._CODE_VERSION = "0" * 64
            assert task.fingerprint() != fp
        finally:
            cache_mod._CODE_VERSION = old

    def test_source_version_covers_prediction_code(self, tmp_path):
        # ledger rows are stamped with source_version(); unlike the cache
        # key, it must change when prediction or ML code changes
        import shutil

        import repro
        from repro.runner.cache import source_version

        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy)
        assert source_version(copy) == source_version()
        harness = copy / "predict" / "harness.py"
        harness.write_text(harness.read_text() + "\n# edited\n")
        assert source_version(copy) != source_version()

    def test_from_payload_roundtrip(self):
        (r,) = run_sweep(grid_tasks(small_workload(), policies=("fcfs",)))
        clone = TaskResult.from_payload(r.label, r.fingerprint, r.payload(), True)
        assert clone.metrics == r.metrics
        assert clone.cached
