"""Tests for the performance-tracing layer (the PR 7 tentpole).

The acceptance properties, in order of load-bearing-ness:

* a sweep run with a :class:`~repro.obs.PerfConfig` attached returns
  results **bit-identical** to an uninstrumented run (tracing observes,
  never decides) while producing one Chrome trace with a lane per worker;
* ``Profiler.span()`` is exception-safe end to end: a span interrupted by
  a fault (``testkit.chaos`` raising mid-cell) still closes, records the
  error, and serializes — the whole payload pipeline survives failures;
* the trace records the sweep's *dynamics*: cache hits, journal replays,
  watchdog retries and terminal failures all appear as instant events;
* the perf gate flags a synthetically slowed bench entry against its
  median-of-k baseline and passes untouched histories.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    ChromeTraceExporter,
    PerfConfig,
    Profiler,
    SamplingProfiler,
    collapse_spans,
    collapse_stacks,
    format_collapsed,
    perf_gate,
)
from repro.runner import ResultCache, RetryPolicy, SimTask, run_sweep
from repro.sched import EASY, SimWorkload, simulate
from repro.testkit import ChaosConfig, ChaosError

CAPACITY = 16


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


def grid(workload, policies=("fcfs", "sjf", "f1", "wfp3"), capacity=CAPACITY):
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


class TestSpanTree:
    def test_parent_links_and_nesting(self):
        prof = Profiler()
        with prof.span("outer", k=1):
            with prof.span("inner"):
                pass
            with prof.span("inner"):
                pass
        payload = prof.to_payload()
        spans = payload["spans"]
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer["parent"] is None
        assert outer["args"] == {"k": 1}
        assert all(s["parent"] == outer["id"] for s in spans[:2])
        assert all(s["t1"] >= s["t0"] >= 0.0 for s in spans)

    def test_self_time_shares_sum_to_one(self):
        prof = Profiler()
        with prof.span("root"):
            for _ in range(3):
                with prof.span("child"):
                    time.sleep(0.001)
        rows = prof.as_dict()["spans"]
        assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)
        root, child = rows["root"], rows["child"]
        # the root's self time excludes its children's elapsed time
        assert root["self_s"] <= root["total_s"] - child["total_s"] + 1e-9
        assert payload_roundtrips(prof)

    def test_exception_closes_span_and_records_error(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.span("doomed"):
                raise ValueError("boom")
        (span,) = prof.to_payload()["spans"]
        assert span["error"] == "ValueError: boom"
        assert "partial" not in span
        # the stack unwound: a later span is a root, not a child of "doomed"
        with prof.span("after"):
            pass
        after = prof.to_payload()["spans"][-1]
        assert after["name"] == "after" and after["parent"] is None

    def test_abandoned_spans_closed_as_partial(self):
        prof = Profiler()
        outer = prof.span("outer")
        outer.__enter__()
        prof.span("inner").__enter__()  # never exited
        prof.close_open_spans()
        spans = prof.to_payload()["spans"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert all(s.get("partial") for s in spans)

    def test_max_spans_cap_counts_drops(self):
        prof = Profiler(max_spans=5)
        for _ in range(9):
            with prof.span("s"):
                pass
        payload = prof.to_payload()
        assert len(payload["spans"]) == 5
        assert payload["dropped_spans"] == 4
        # stats still see every call even when span records are dropped
        assert prof.stats("s")[0] == 9


def payload_roundtrips(prof: Profiler) -> bool:
    """A payload must be plain JSON all the way down."""
    payload = prof.to_payload()
    return json.loads(json.dumps(payload)) == payload


class TestChaosExceptionSafety:
    """Regression: a chaos fault mid-span must not corrupt the profiler."""

    def test_chaos_error_inside_span_tree(self):
        chaos = ChaosConfig(error_p=1.0, seed=0)
        prof = Profiler(worker="w1")
        with pytest.raises(ChaosError):
            with prof.span("cell", label="x"):
                with prof.span("simulate"):
                    chaos.before_execute("fp", 1)
        payload = prof.to_payload()
        by_name = {s["name"]: s for s in payload["spans"]}
        assert "ChaosError" in by_name["simulate"]["error"]
        assert "ChaosError" in by_name["cell"]["error"]
        assert by_name["simulate"]["parent"] == by_name["cell"]["id"]
        assert payload_roundtrips(prof)
        # repeated attempts on the same profiler never leak open spans
        for attempt in range(2, 5):
            with pytest.raises(ChaosError):
                with prof.span("cell", label="x"):
                    chaos.before_execute("fp", attempt)
        roots = [s for s in prof.to_payload()["spans"] if s["parent"] is None]
        assert len(roots) == 4  # one per attempt: the stack fully unwound


class TestChromeExport:
    def _payload(self):
        prof = Profiler(worker="w0")
        with prof.span("cell", label="fcfs"):
            with prof.span("simulate"):
                time.sleep(0.001)
        return prof.to_payload()

    def test_export_shape(self):
        exporter = ChromeTraceExporter()
        exporter.add_profile(self._payload())
        doc = exporter.to_dict()
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta if m["name"] == "process_name"} == {"w0"}
        assert {s["name"] for s in spans} == {"cell", "simulate"}
        # timestamps are rebased so the earliest event sits at t=0
        assert min(s["ts"] for s in spans) == 0
        assert all(s["dur"] >= 1 for s in spans)
        assert json.loads(json.dumps(doc)) == doc

    def test_instants_and_multiple_lanes(self):
        exporter = ChromeTraceExporter()
        exporter.add_profile(self._payload())
        exporter.add_instant("retry", time.time(), lane="sweep-parent",
                             args={"label": "sjf"})
        doc = exporter.to_dict()
        lanes = {m["args"]["name"] for m in doc["traceEvents"]
                 if m.get("name") == "process_name"}
        assert lanes == {"w0", "sweep-parent"}
        (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "retry" and instant["args"]["label"] == "sjf"

    def test_collapse_spans_weights_are_self_time(self):
        payload = self._payload()
        stacks = collapse_spans(payload)
        assert set(stacks) == {"cell", "cell;simulate"}
        spans = {s["name"]: s for s in payload["spans"]}
        want = round(1e6 * (
            (spans["cell"]["t1"] - spans["cell"]["t0"])
            - (spans["simulate"]["t1"] - spans["simulate"]["t0"])
        ))
        assert stacks["cell"] == pytest.approx(want, abs=2)

    def test_format_collapsed_is_flamegraph_input(self):
        lines = format_collapsed({"a;b": 10, "a": 5}).splitlines()
        assert lines == ["a 5", "a;b 10"]


class TestSamplingProfiler:
    def test_samples_attribute_to_repro_frames(self):
        workload = wl(n=400, seed=1)
        sampler = SamplingProfiler(hz=500.0)
        sampler.start()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                simulate(workload, CAPACITY, "fcfs", EASY)
                if sampler.to_payload()["n_samples"] > 0:
                    break
        finally:
            sampler.stop()
        payload = sampler.to_payload()
        assert payload["n_samples"] > 0
        assert payload["hz"] == 500.0
        assert all(key.startswith("repro") for key in payload["stacks"])
        # every stack is root-first: the leaf module is the last element
        assert sum(payload["stacks"].values()) + payload["n_unmatched"] == (
            payload["n_samples"]
        )

    def test_collapse_stacks_merges_spans_and_samples(self):
        prof = Profiler()
        with prof.span("cell"):
            time.sleep(0.001)
        sampler_payload = {
            "hz": 100.0, "prefix": "repro", "n_samples": 2,
            "n_unmatched": 0, "stacks": {"repro.sched.engine": 2},
        }
        merged = collapse_stacks([prof.to_payload()], [sampler_payload])
        assert "cell" in merged
        # 2 samples at 100 Hz weigh 2 * 10_000 us
        assert merged["repro.sched.engine"] == 20_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)
        with pytest.raises(ValueError):
            PerfConfig(sampler_hz=-1.0)

    def test_stop_is_idempotent(self):
        sampler = SamplingProfiler(hz=100.0)
        sampler.start()
        sampler.stop()
        sampler.stop()
        assert not any(
            t.name == "repro-sampler" for t in threading.enumerate()
        )


class TestSweepAggregation:
    def test_instrumented_sweep_is_bit_identical(self, tmp_path):
        tasks = grid(wl())
        plain = run_sweep(tasks, jobs=2)
        perf = PerfConfig(trace_out=tmp_path / "t.json",
                          stacks_out=tmp_path / "s.txt")
        traced = run_sweep(tasks, jobs=2, perf=perf)
        assert [r.payload() for r in traced] == [r.payload() for r in plain]

    def test_trace_has_worker_lanes_and_engine_spans(self, tmp_path):
        out = tmp_path / "trace.json"
        perf = PerfConfig(trace_out=out)
        run_sweep(grid(wl()), jobs=2, perf=perf)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        lanes = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert "sweep-parent" in lanes
        assert len(lanes) >= 2  # at least one worker lane beside the parent
        names = {e["name"] for e in events if e["ph"] == "X"}
        # worker cells nest the engine's own spans; the parent contributes
        # its fingerprint/cache-probe/execute phases
        assert {"cell", "simulate", "execute", "fingerprint"} <= names
        assert any("simulate" in path for path in perf.trace.collapsed())

    def test_fine_spans_opt_in_records_engine_rounds(self):
        """Per-round engine spans appear only under ``fine_spans=True``.

        The coarse default keeps the sweep inside the <5% overhead budget
        (benchmarks/test_bench_obs_overhead.py); the fine mode trades that
        budget for exact per-round timing.
        """
        tasks = grid(wl(), policies=("fcfs",))
        coarse = PerfConfig()
        run_sweep(tasks, perf=coarse)
        fine = PerfConfig(fine_spans=True)
        run_sweep(tasks, perf=fine)

        round_spans = {"policy_sort", "backfill_scan", "event_drain"}

        def span_names(cfg):
            return {
                s["name"]
                for cell in cfg.trace.cells
                for s in cell["profile"]["spans"]
            }

        assert span_names(coarse) & round_spans == set()
        assert round_spans <= span_names(fine)
        # granularity only changes what is observed, never the schedule
        assert [r.payload() for r in run_sweep(tasks, perf=fine)] == [
            r.payload() for r in run_sweep(tasks)
        ]

    def test_cache_hits_become_instants(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = grid(wl(), policies=("fcfs", "sjf"))
        run_sweep(tasks, cache=cache)
        perf = PerfConfig()
        run_sweep(tasks, cache=cache, perf=perf)
        hits = [e for e in perf.trace.events if e["kind"] == "cache_hit"]
        assert {e["label"] for e in hits} == {"fcfs", "sjf"}

    def test_watchdog_retries_recorded(self):
        tasks = grid(wl(), policies=("fcfs", "sjf"))
        fps = [t.fingerprint() for t in tasks]
        # search a seed whose first attempt deterministically faults
        seed = next(
            s for s in range(2000)
            if any(
                ChaosConfig(error_p=0.4, seed=s).fault_for(fp, 1) == "error"
                for fp in fps
            )
        )
        chaos = ChaosConfig(error_p=0.4, seed=seed)
        perf = PerfConfig()
        baseline = run_sweep(tasks)
        healed = run_sweep(
            tasks,
            on_error="retry",
            retry=RetryPolicy(max_attempts=8, backoff_base=0.0),
            chaos=chaos,
            perf=perf,
        )
        # chaos decides whether an attempt fails, never what a success
        # computes — and the retries leave a visible trail in the trace
        assert [r.payload() for r in healed] == [
            r.payload() for r in baseline
        ]
        retries = [e for e in perf.trace.events if e["kind"] == "retry"]
        assert retries and all(e["args"]["attempt"] >= 1 for e in retries)
        names = {e["name"] for e in perf.trace.to_exporter().to_dict()["traceEvents"]
                 if e["ph"] == "i"}
        assert "retry" in names

    def test_failed_cell_ships_partial_profile(self):
        # cores > capacity is a poison error: the engine raises before the
        # cell completes, and the worker must still ship its span tree
        poison = SimTask(
            label="poison",
            workload=wl(n=4),
            policy="fcfs",
            backfill=EASY,
            capacity=1,
        )
        perf = PerfConfig()
        results = run_sweep([poison], on_error="skip", perf=perf)
        assert results == [None]
        (cell,) = perf.trace.cells
        assert cell["failed"] and cell["label"] == "poison"
        spans = cell["profile"]["spans"]
        assert any("ValueError" in s.get("error", "") for s in spans)

    def test_one_config_accumulates_across_sweeps(self, tmp_path):
        out = tmp_path / "two_phase.json"
        perf = PerfConfig(trace_out=out)
        run_sweep(grid(wl(), policies=("fcfs",)), perf=perf)
        run_sweep(grid(wl(), policies=("sjf",)), perf=perf)
        assert perf.trace.n_cells == 2
        doc = json.loads(out.read_text())
        n_exec = sum(1 for e in doc["traceEvents"]
                     if e["ph"] == "X" and e["name"] == "execute")
        assert n_exec == 2  # one parent "execute" phase per sweep

    def test_sampler_and_metrics_ride_along(self):
        perf = PerfConfig(sampler_hz=500.0, collect_metrics=True)
        run_sweep(grid(wl(n=200), policies=("fcfs",)), perf=perf)
        (cell,) = perf.trace.cells
        assert "sampler" in cell
        assert cell["metrics"]["counters"]
        assert cell["metrics"]["counters"]["sim_jobs_started_total"] == 200


class TestPerfGate:
    @staticmethod
    def history(values, bench="b"):
        return [
            {"bench": bench, "wall_seconds": v, "status": "ok"}
            for v in values
        ]

    def test_flags_synthetic_slowdown(self):
        records = self.history([1.0, 1.02, 0.98, 1.01, 1.0, 3.0])
        (entry,) = perf_gate(records, "bench")
        assert entry["regressed"]
        assert entry["baseline"] == pytest.approx(1.0)
        assert entry["ratio"] == pytest.approx(3.0)

    def test_noise_below_threshold_passes(self):
        records = self.history([1.0, 1.1, 0.9, 1.05, 1.0, 1.2])
        (entry,) = perf_gate(records, "bench")
        assert not entry["regressed"]

    def test_median_resists_one_outlier_baseline(self):
        # one anomalously slow historical run must not mask a regression
        records = self.history([1.0, 1.0, 9.0, 1.0, 1.0, 2.0])
        (entry,) = perf_gate(records, "bench")
        assert entry["baseline"] == pytest.approx(1.0)
        assert entry["regressed"]

    def test_no_history_passes(self):
        (entry,) = perf_gate(self.history([1.0]), "bench")
        assert entry["ratio"] is None and not entry["regressed"]

    def test_window_limits_baseline(self):
        records = self.history([10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        (entry,) = perf_gate(records, "bench", window=4)
        assert entry["baseline"] == pytest.approx(1.0)
        assert entry["n_baseline"] == 4

    def test_cached_and_failed_rows_skipped(self):
        records = self.history([1.0, 1.0, 1.0])
        records.append({"bench": "b", "wall_seconds": 0.01, "cached": True})
        records.append({"bench": "b", "wall_seconds": 9.0, "status": "error"})
        records.append({"bench": "b", "wall_seconds": 1.0, "status": "ok"})
        (entry,) = perf_gate(records, "bench")
        assert entry["runs"] == 4
        assert not entry["regressed"]

    def test_per_call_median_gated_where_rows_carry_it(self):
        # Fig 11's ledger shape: the calibrated test duration grew 1.73x
        # over its baseline while one call's median grew 1.17x
        records = self.history([1.0, 0.95, 1.07, 1.09, 1.35])
        records.append(
            {"bench": "b", "wall_seconds": 1.82, "median_s": 0.0137, "status": "ok"}
        )
        records.append(
            {"bench": "b", "wall_seconds": 1.88, "median_s": 0.0160, "status": "ok"}
        )
        # no earlier row carries median_s: the wall time is all there is
        (entry,) = perf_gate(records[:-2] + records[-1:], "bench", regression_factor=1.6)
        assert entry["field"] == "wall_seconds" and entry["regressed"]
        (entry,) = perf_gate(records, "bench", regression_factor=1.6)
        assert entry["field"] == "median_s"
        assert entry["value"] == 0.0160 and entry["baseline"] == 0.0137
        assert entry["runs"] == 2 and entry["n_baseline"] == 1
        assert not entry["regressed"]

    def test_wall_seconds_gated_without_per_call_median(self):
        records = self.history([1.0, 1.0, 1.0])
        records.insert(1, {"bench": "b", "wall_seconds": 1.0, "median_s": 0.01})
        (entry,) = perf_gate(records + self.history([3.0]), "bench")
        assert entry["field"] == "wall_seconds" and entry["regressed"]
        # another gated field never reads median_s
        rows = [{"bench": "b", "cpu": 1.0, "median_s": 0.01}] * 2
        (entry,) = perf_gate(rows, "bench", value_field="cpu")
        assert entry["field"] == "cpu" and entry["ratio"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            perf_gate([], "bench", window=0)
        with pytest.raises(ValueError):
            perf_gate([], "bench", regression_factor=1.0)
