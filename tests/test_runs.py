"""Run registry, sweep report, progress reporters, trajectory (repro.obs.runs).

The load-bearing guarantees (ISSUE 4 tentpole contract):

* a :class:`RunRegistry` attached to ``run_sweep`` logs one record per
  cell — atomic JSONL appends, cache hits first, computed cells in
  completion order — without changing the sweep's results;
* :class:`SweepReport` aggregates per-worker load, stragglers and cache
  efficiency from a record stream;
* :func:`trajectory` flags entries >= the regression factor of their
  predecessor and skips cache hits.
"""

import io
import json
import math

import numpy as np
import pytest

from repro.obs import (
    NULL_PROGRESS,
    JsonlProgress,
    NullProgress,
    ProgressReporter,
    RunRecord,
    RunRegistry,
    SweepReport,
    TtyProgress,
    read_records,
    trajectory,
)
from repro.runner import ResultCache, SimTask, SweepStats, run_sweep
from repro.sched import EASY, SimWorkload


def small_workload(n=40, seed=7):
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0, 3600.0, n))
    runtime = rng.uniform(60.0, 1800.0, n)
    return SimWorkload(
        submit=submit,
        cores=rng.integers(1, 8, n).astype(np.int64),
        runtime=runtime,
        walltime=runtime * 1.5,
        user=np.zeros(n, dtype=np.int64),
    )


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


def record(
    label="cell",
    wall=1.0,
    cached=False,
    worker="main",
    seq=0,
    policy="fcfs",
    ts=0.0,
):
    return {
        "fingerprint": f"f-{label}-{seq}",
        "label": label,
        "policy": policy,
        "system": None,
        "wall_seconds": wall,
        "cached": cached,
        "worker": worker,
        "seq": seq,
        "code": "c0",
        "metrics": {},
        "ts": ts,
    }


class TestRunRegistry:
    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with RunRegistry(path) as reg:
            reg.append(RunRecord(**record(seq=0)))
            reg.append(record(seq=1))
            assert reg.count == 2
        rows = read_records(path)
        assert [r["seq"] for r in rows] == [0, 1]
        assert all(r["label"] == "cell" for r in rows)

    def test_appends_accumulate_across_instances(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for seq in range(3):
            with RunRegistry(path) as reg:
                reg.append(record(seq=seq))
        assert [r["seq"] for r in read_records(path)] == [0, 1, 2]

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "runs.jsonl"
        with RunRegistry(path) as reg:
            reg.append(record())
        assert path.exists()

    def test_closed_registry_rejects_appends(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs.jsonl")
        reg.close()
        reg.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            reg.append(record())

    def test_every_line_is_complete_json(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with RunRegistry(path) as reg:
            for seq in range(10):
                reg.append(record(seq=seq))
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_records(path)

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with RunRegistry(path) as reg:
            reg.append(record(seq=0))
            reg.append(record(seq=1))
        # crash mid-append: a partial, newline-less line at the tail
        with open(path, "ab") as fh:
            fh.write(b'{"fingerprint": "f-torn')
        with pytest.warns(RuntimeWarning, match="torn"):
            reg = RunRegistry(path)
        with reg:
            reg.append(record(seq=2))
        rows = read_records(path)
        assert [r["seq"] for r in rows] == [0, 1, 2]
        for line in path.read_text().splitlines():
            json.loads(line)  # the file is strictly parseable again

    def test_reader_skips_torn_tail_with_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with RunRegistry(path) as reg:
            reg.append(record(seq=0))
        with open(path, "ab") as fh:
            fh.write(b'{"fingerprint": "f-torn')
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            rows = read_records(path)
        assert [r["seq"] for r in rows] == [0]


class TestSweepReport:
    def test_failed_and_retried_rows_split_out(self):
        rows = [
            record(seq=0, wall=1.0),
            {**record(seq=1, wall=30.0), "status": "retried:timeout", "attempt": 1},
            {**record(seq=2, wall=1.2), "status": "ok", "attempt": 2},
            {**record(seq=3, wall=0.0), "status": "failed:crash", "attempt": 3},
        ]
        report = SweepReport(rows)
        assert report.n_tasks == 3  # 2 ok cells + 1 failed cell, not attempts
        assert len(report.failed) == 1
        assert len(report.retried) == 1
        # the retried attempt's 30 s timeout never pollutes wall stats
        assert report.total_wall == pytest.approx(2.2)
        d = report.to_dict()
        assert d["n_failed"] == 1 and d["n_retried"] == 1
        text = report.render()
        assert "failed" in text and "retried" in text

    def test_cache_efficiency_and_counts(self):
        recs = [record(cached=True, worker="cache"), record(wall=1.0), record(wall=3.0)]
        rep = SweepReport(recs)
        assert rep.n_tasks == 3
        assert rep.n_cached == 1
        assert rep.cache_hit_rate == pytest.approx(1 / 3)
        # cached cells never pollute the wall statistics
        assert rep.median_wall == pytest.approx(2.0)
        assert rep.total_wall == pytest.approx(4.0)

    def test_per_worker_load_and_balance(self):
        recs = [
            record(wall=1.0, worker="w1"),
            record(wall=1.0, worker="w1"),
            record(wall=2.0, worker="w2"),
        ]
        rep = SweepReport(recs)
        workers = rep.per_worker()
        assert workers["w1"] == {"tasks": 2, "wall_seconds": 2.0}
        assert workers["w2"] == {"tasks": 1, "wall_seconds": 2.0}
        assert rep.balance == pytest.approx(1.0)  # 2.0 / mean(2.0, 2.0)

    def test_straggler_detection(self):
        recs = [record(wall=1.0) for _ in range(5)] + [
            record(label="slow", wall=10.0)
        ]
        stragglers = SweepReport(recs, straggler_factor=3.0).stragglers()
        assert [s["label"] for s in stragglers] == ["slow"]
        assert stragglers[0]["ratio_to_median"] == pytest.approx(10.0)

    def test_no_stragglers_below_factor(self):
        recs = [record(wall=1.0), record(wall=2.5)]
        assert SweepReport(recs, straggler_factor=3.0).stragglers() == []

    def test_straggler_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            SweepReport([], straggler_factor=1.0)

    def test_empty_report_is_nan_safe(self):
        rep = SweepReport([])
        assert math.isnan(rep.cache_hit_rate)
        assert math.isnan(rep.balance)
        snap = rep.to_dict()
        assert snap["cache_hit_rate"] is None
        json.dumps(snap, allow_nan=False)  # fully JSON-clean
        assert "sweep summary" in rep.render()

    def test_throughput_from_timestamps(self):
        recs = [record(wall=1.0, ts=100.0), record(wall=1.0, ts=103.0)]
        # span 3s widened by the first record's own wall second
        assert SweepReport(recs).throughput == pytest.approx(2 / 4)

    def test_render_lists_workers_and_stragglers(self):
        recs = [record(wall=1.0, worker="w1") for _ in range(4)] + [
            record(label="slow", wall=9.0, worker="w2")
        ]
        text = SweepReport(recs).render()
        assert "per-worker load" in text
        assert "w2" in text
        assert "slow" in text

    def test_to_json_round_trips(self):
        snap = json.loads(SweepReport([record()]).to_json())
        assert snap["n_tasks"] == 1


class TestProgressReporters:
    def test_null_progress_is_disabled(self):
        assert NullProgress.enabled is False
        assert NULL_PROGRESS.enabled is False
        assert ProgressReporter.enabled is True

    def test_tty_progress_single_line(self):
        stream = io.StringIO()
        progress = TtyProgress(stream=stream)
        progress.sweep_start(2, 0, 1)
        rec = RunRecord(**record(wall=0.5, seq=0))
        progress.task_done(rec, 1, 2)
        progress.task_done(rec, 2, 2)
        progress.sweep_end({})
        text = stream.getvalue()
        assert "2 task(s)" in text
        assert "\r" in text  # self-overwriting updates
        assert text.endswith("\n")

    def test_jsonl_progress_event_stream(self):
        stream = io.StringIO()
        progress = JsonlProgress(stream)
        progress.sweep_start(1, 0, 2)
        progress.task_done(RunRecord(**record(seq=0)), 1, 1)
        progress.sweep_end({"n_tasks": 1})
        progress.close()
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["event"] for e in events] == [
            "sweep_start",
            "task_done",
            "sweep_end",
        ]
        assert events[1]["label"] == "cell"
        assert events[2]["n_tasks"] == 1

    def test_jsonl_progress_owns_path(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        with JsonlProgress(path) as progress:
            progress.sweep_start(0, 0, 1)
        assert progress.count == 1
        assert json.loads(path.read_text())["event"] == "sweep_start"

    def test_jsonl_progress_close_flushes_not_closes_foreign_stream(self):
        stream = io.StringIO()
        progress = JsonlProgress(stream)
        progress.sweep_start(0, 0, 1)
        progress.close()
        progress.close()  # idempotent
        assert not stream.closed


class TestTrajectory:
    def test_flags_regressions_per_key(self):
        recs = [
            record(label="a", wall=1.0),
            record(label="b", wall=5.0),
            record(label="a", wall=1.4),  # 1.4x -> regressed at 1.3
            record(label="b", wall=5.1),  # 1.02x -> fine
        ]
        entries = trajectory(recs, "label")
        flagged = {(e["key"], e["regressed"]) for e in entries if e["index"] == 1}
        assert flagged == {("a", True), ("b", False)}

    def test_first_run_of_a_key_never_regresses(self):
        entries = trajectory([record(label="a", wall=100.0)], "label")
        assert entries[0]["ratio"] is None
        assert entries[0]["regressed"] is False

    def test_skips_cached_records(self):
        recs = [
            record(label="a", wall=1.0),
            record(label="a", wall=0.0, cached=True),
            record(label="a", wall=1.1),
        ]
        entries = trajectory(recs, "label")
        assert [e["value"] for e in entries] == [1.0, 1.1]

    def test_custom_factor_and_validation(self):
        recs = [record(label="a", wall=1.0), record(label="a", wall=1.2)]
        assert trajectory(recs, "label", regression_factor=1.15)[1]["regressed"]
        with pytest.raises(ValueError):
            trajectory(recs, "label", regression_factor=1.0)

    def test_bench_history_shape(self):
        recs = [
            {"bench": "test_fig1", "wall_seconds": 2.0},
            {"bench": "test_fig1", "wall_seconds": 2.9},
        ]
        entries = trajectory(recs, "bench")
        assert entries[1]["regressed"] is True


class TestSweepIntegration:
    def test_registry_logs_every_cell(self, tmp_path):
        tasks = grid_tasks(small_workload())
        with RunRegistry(tmp_path / "runs.jsonl") as reg:
            # one worker completes the cells in task order
            results = run_sweep(tasks, registry=reg, jobs=1)
        recs = reg.records()
        assert len(recs) == len(tasks)
        assert [r["label"] for r in recs] == [t.label for t in tasks]
        assert [r["seq"] for r in recs] == list(range(len(tasks)))
        assert all(r["wall_seconds"] > 0 for r in recs)
        assert all(not r["cached"] for r in recs)
        # every cell ran in a child worker, even at jobs=1
        assert all(r["worker"] not in ("", "MainProcess") for r in recs)
        # metrics travel with the record (minable without the cache)
        assert recs[0]["metrics"] == results[0].metrics

    def test_cache_hits_logged_first_with_cache_worker(self, tmp_path):
        tasks = grid_tasks(small_workload())
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks[:2], cache=cache)  # warm two of three cells
        with RunRegistry(tmp_path / "runs.jsonl") as reg:
            run_sweep(tasks, cache=cache, registry=reg)
        recs = reg.records()
        assert [r["cached"] for r in recs] == [True, True, False]
        assert [r["worker"] for r in recs][:2] == ["cache", "cache"]
        assert [r["wall_seconds"] for r in recs][:2] == [0.0, 0.0]

    def test_parallel_workers_recorded(self, tmp_path):
        tasks = grid_tasks(small_workload())
        with RunRegistry(tmp_path / "runs.jsonl") as reg:
            run_sweep(tasks, jobs=2, registry=reg)
        workers = {r["worker"] for r in reg.records()}
        assert all(w not in ("", "MainProcess", "cache") for w in workers)

    def test_progress_sees_completion_order(self):
        tasks = grid_tasks(small_workload())

        class Capture(ProgressReporter):
            def __init__(self):
                self.calls = []

            def sweep_start(self, total, cached, jobs):
                self.calls.append(("start", total, cached, jobs))

            def task_done(self, record, done, total):
                self.calls.append(("done", record.label, done, total))

            def sweep_end(self, stats):
                self.calls.append(("end", stats["n_tasks"]))

        capture = Capture()
        run_sweep(tasks, progress=capture)
        n = len(tasks)
        # the default worker count is the CPUs available to the process
        from repro.runner.options import available_cpus

        assert capture.calls[0] == ("start", n, 0, available_cpus())
        assert capture.calls[-1] == ("end", n)
        dones = [c for c in capture.calls if c[0] == "done"]
        assert [c[2] for c in dones] == list(range(1, n + 1))

    def test_stats_out_filled(self, tmp_path):
        tasks = grid_tasks(small_workload())
        cache = ResultCache(tmp_path / "cache")
        stats = SweepStats()
        run_sweep(tasks, cache=cache, stats_out=stats)
        assert stats.n_tasks == len(tasks)
        assert stats.n_executed == len(tasks)
        assert stats.cache_misses == len(tasks)
        assert stats.cache_hits == 0
        assert stats.task_seconds > 0
        assert stats.total_seconds >= stats.execute_seconds

        warm = SweepStats()
        run_sweep(tasks, cache=cache, stats_out=warm)
        assert warm.cache_hits == len(tasks)
        assert warm.cache_misses == 0
        assert warm.n_executed == 0
        assert "cached" in warm.summary()
        assert warm.as_dict()["n_tasks"] == len(tasks)
