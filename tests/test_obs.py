"""Tests for the repro.obs observability layer.

Three layers of coverage:

* unit behaviour of the building blocks (tracers, metrics instruments,
  profiler spans, the event audit);
* the **identity guarantee**: every engine must produce bit-identical
  results with and without observability sinks attached;
* property-based invariants of captured event streams (hypothesis): for
  random workloads, every traced run must pass :func:`check_events` —
  monotone sim-time, every start preceded by its submit, exact core
  conservation — on all engines and backfill modes.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    CAPACITY_EVENTS,
    ColumnarRecorder,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlTracer,
    Metrics,
    NullTracer,
    Profiler,
    RingBufferTracer,
    check_events,
    make_event,
    read_records,
    render_timeline,
    summarize_events,
    utilization_series,
)
from repro.obs import events as ev
from repro.sched import (
    EASY,
    NO_BACKFILL,
    FaultConfig,
    SimWorkload,
    adaptive_relaxed,
    relaxed,
    simulate,
    simulate_conservative,
    simulate_with_faults,
)
from repro.testkit import random_workload
from repro.testkit.fuzz import FUZZ_FAULT_CONFIGS

CAPACITY = 16


def make_workload(n=60, seed=0, span=3000.0):
    rng = np.random.default_rng(seed)
    runtime = rng.lognormal(4.0, 1.0, n)
    return SimWorkload(
        submit=np.sort(rng.uniform(0.0, span, n)),
        runtime=runtime,
        walltime=runtime * rng.uniform(1.0, 3.0, n),
        cores=rng.integers(1, CAPACITY + 1, n).astype(np.int64),
        user=rng.integers(0, 5, n).astype(np.int64),
    )


@st.composite
def workloads(draw):
    n = draw(st.integers(2, 25))
    submit = np.cumsum(
        np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    )
    cores = np.array(
        draw(st.lists(st.integers(1, CAPACITY), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    runtime = np.array(
        draw(st.lists(st.floats(1.0, 500.0), min_size=n, max_size=n))
    )
    factor = np.array(
        draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n))
    )
    return SimWorkload(
        submit=submit,
        cores=cores,
        runtime=runtime,
        walltime=runtime * factor,
        user=np.zeros(n, dtype=np.int64),
    )


FAULTS = FaultConfig(
    node_mtbf=400.0,
    node_mttr=100.0,
    n_nodes=4,
    fail_prob=0.05,
    kill_prob=0.02,
    max_attempts=3,
    backoff_base=10.0,
    checkpoint_interval=50.0,
    seed=7,
)


# --------------------------------------------------------------------- events
class TestEvents:
    def test_make_event_shape(self):
        e = make_event(ev.START, 12.5, 3, cores=4, free=12)
        assert e == {"kind": "start", "t": 12.5, "job": 3, "cores": 4, "free": 12}

    def test_make_event_omits_negative_job(self):
        e = make_event(ev.RUN_START, 0.0, capacity=16)
        assert "job" not in e

    def test_capacity_events_subset(self):
        assert CAPACITY_EVENTS <= ev.EVENT_KINDS


# -------------------------------------------------------------------- tracers
class TestTracers:
    def test_null_tracer_disabled(self):
        t = NullTracer()
        assert not t.enabled
        t.emit(ev.START, 0.0, 1)  # harmless no-op
        t.close()

    def test_ring_buffer_capture_and_drop(self):
        t = RingBufferTracer(capacity=3)
        for i in range(5):
            t.emit(ev.SUBMIT, float(i), i)
        assert len(t.events) == 3
        assert t.dropped == 2
        assert [e["t"] for e in t.events] == [2.0, 3.0, 4.0]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTracer(path) as t:
            t.emit(ev.RUN_START, 0.0, capacity=CAPACITY)
            t.emit(ev.SUBMIT, 1.0, 0, cores=2)
            assert t.count == 2
        records = read_records(path)
        assert [r["kind"] for r in records] == ["run_start", "submit"]
        assert records[1] == {"kind": "submit", "t": 1.0, "job": 0, "cores": 2}

    def test_close_flushes_non_owned_stream(self, tmp_path):
        """Regression: caller-supplied handles must be flushed on close.

        close() used to do nothing for non-owned files, so tail events
        could sit in Python's write buffer until the caller remembered to
        flush — here the handle is deliberately left unflushed.
        """
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            t = JsonlTracer(fh)
            t.emit(ev.SUBMIT, 1.0, 0, cores=2)
            t.close()
            # flushed to disk while the caller's handle is still open...
            assert [r["kind"] for r in read_records(path)] == ["submit"]
            # ...and the caller's handle was NOT closed
            assert not fh.closed
        assert fh.closed

    def test_close_is_idempotent_either_ownership(self, tmp_path):
        owned = JsonlTracer(tmp_path / "owned.jsonl")
        owned.emit(ev.SUBMIT, 1.0, 0)
        owned.close()
        owned.close()  # second close: no error

        with open(tmp_path / "foreign.jsonl", "w", encoding="utf-8") as fh:
            t = JsonlTracer(fh)
            t.close()
            t.close()
        t.close()  # even after the caller closed their own stream


# -------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_monotone(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set(self):
        g = Gauge("g")
        g.set(7)
        assert g.value == 7.0

    def test_histogram_buckets(self):
        h = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx(555.5 / 4)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_default_buckets_log_spaced(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-3)
        ratios = [b2 / b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
        assert all(r == pytest.approx(10 ** (1 / 3)) for r in ratios)

    def test_registry_get_or_create(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        with pytest.raises(ValueError):
            m.gauge("a")
        assert "a" in m and m["a"].value == 0.0

    def test_sampling_grid(self):
        m = Metrics(sample_interval=10.0)
        g = m.gauge("q")
        g.set(1)
        m.sample(0.0)  # anchors the grid
        g.set(2)
        m.sample(25.0)  # crosses 10 and 20
        assert m.series_times == [0.0, 10.0, 20.0]
        assert m.series["q"] == [1.0, 2.0, 2.0]

    def test_sampling_disabled(self):
        m = Metrics()
        m.gauge("q").set(1)
        m.sample(100.0)
        assert m.series_times == []

    def test_to_prometheus_format(self):
        m = Metrics()
        m.counter("jobs_total", "all jobs").inc(3)
        m.gauge("depth").set(2)
        h = m.histogram("wait", bounds=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = m.to_prometheus()
        assert "# HELP jobs_total all jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3.0" in text
        assert 'wait_bucket{le="1.0"} 1' in text
        assert 'wait_bucket{le="10.0"} 2' in text
        assert 'wait_bucket{le="+Inf"} 2' in text
        assert "wait_sum 5.5" in text
        assert "wait_count 2" in text

    def test_to_json_is_nan_free(self):
        m = Metrics(sample_interval=5.0)
        m.histogram("empty")
        payload = json.loads(m.to_json())
        assert payload["histograms"]["empty"]["min"] is None
        json.dumps(payload, allow_nan=False)  # must not raise

    def test_prometheus_sanitizes_metric_names(self):
        m = Metrics()
        m.counter("sim.jobs/started-total").inc()
        m.gauge("0depth").set(1)
        text = m.to_prometheus()
        assert "sim_jobs_started_total 1.0" in text
        assert "# TYPE sim_jobs_started_total counter" in text
        assert "_0depth 1.0" in text
        # every exposed name obeys the exposition grammar
        for line in text.splitlines():
            if line.startswith("#"):
                name = line.split()[2]
            else:
                name = line.split("{")[0].split()[0]
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), line

    def test_prometheus_buckets_are_cumulative(self):
        m = Metrics()
        h = m.histogram("wait", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 0.6, 5.0, 50.0, 500.0):
            h.observe(v)
        text = m.to_prometheus()
        # raw per-bucket counts are [2, 1, 1, 1]; exported ones cumulate
        assert 'wait_bucket{le="1.0"} 2' in text
        assert 'wait_bucket{le="10.0"} 3' in text
        assert 'wait_bucket{le="100.0"} 4' in text
        assert 'wait_bucket{le="+Inf"} 5' in text
        # the +Inf bucket always equals the total observation count
        assert "wait_count 5" in text
        cum = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("wait_bucket")
        ]
        assert cum == sorted(cum)

    def test_prometheus_infinite_bounds_format(self):
        m = Metrics()
        h = m.histogram("x", bounds=(1.0, math.inf))
        h.observe(0.5)
        h.observe(math.inf)
        text = m.to_prometheus()
        assert 'x_bucket{le="+Inf"} 2' in text
        assert "x_sum +Inf" in text


# ------------------------------------------------------------------ profiling
class TestProfiler:
    def test_spans_accumulate(self):
        p = Profiler()
        for _ in range(3):
            with p.span("work"):
                pass
        calls, total = p.stats("work")
        assert calls == 3
        assert total >= 0.0
        assert p.profiled_seconds == pytest.approx(total)

    def test_as_dict_and_report(self):
        p = Profiler()
        with p.span("alpha"):
            pass
        d = p.as_dict()
        assert "alpha" in d["spans"]
        assert d["spans"]["alpha"]["calls"] == 1
        assert "alpha" in p.report()

    def test_conservative_engine_spans(self):
        """A fine profiler times every round's phases (a static policy is
        ranked once per run, a clock-dependent one every round); a coarse
        profiler sees only the root span."""
        wl = make_workload(seed=6)
        static = Profiler()
        simulate_conservative(wl, CAPACITY, "fcfs", profiler=static)
        calls = {name: static.stats(name)[0] for name in static.as_dict()["spans"]}
        assert calls["simulate"] == calls["policy_sort"] == 1
        assert calls["event_drain"] >= calls["profile_rebuild"] > 1
        assert calls["backfill_scan"] == calls["profile_rebuild"]
        dynamic = Profiler()
        simulate_conservative(wl, CAPACITY, "wfp3", profiler=dynamic)
        assert dynamic.stats("policy_sort")[0] == dynamic.stats("profile_rebuild")[0]
        coarse = Profiler(fine=False)
        simulate_conservative(wl, CAPACITY, "fcfs", profiler=coarse)
        assert set(coarse.as_dict()["spans"]) == {"simulate"}


# ---------------------------------------------------------------- event audit
class TestCheckEvents:
    def test_detects_time_regression(self):
        stream = [make_event(ev.SUBMIT, 5.0, 0), make_event(ev.SUBMIT, 1.0, 1)]
        assert any("backwards" in v for v in check_events(stream))

    def test_detects_start_without_submit(self):
        stream = [make_event(ev.START, 1.0, 0, cores=1, free=15)]
        assert any("without a submit" in v for v in check_events(stream, CAPACITY))

    def test_detects_core_leak(self):
        stream = [
            make_event(ev.RUN_START, 0.0, capacity=4),
            make_event(ev.SUBMIT, 0.0, 0),
            make_event(ev.START, 0.0, 0, cores=2, free=2),
            make_event(ev.FINISH, 9.0, 0, cores=1, free=3),
        ]
        assert any("released" in v for v in check_events(stream))

    def test_detects_ledger_mismatch(self):
        stream = [
            make_event(ev.RUN_START, 0.0, capacity=4),
            make_event(ev.SUBMIT, 0.0, 0),
            make_event(ev.START, 0.0, 0, cores=2, free=3),
        ]
        assert any("ledger mismatch" in v for v in check_events(stream))

    def test_clean_stream_passes(self):
        stream = [
            make_event(ev.RUN_START, 0.0, capacity=4),
            make_event(ev.SUBMIT, 0.0, 0),
            make_event(ev.START, 0.0, 0, cores=2, free=2),
            make_event(ev.FINISH, 9.0, 0, cores=2, free=4),
        ]
        assert check_events(stream) == []


# -------------------------------------------------------- identity guarantee
class TestNoOpIdentity:
    """Instrumented runs must be bit-identical to uninstrumented ones."""

    def sinks(self):
        return dict(
            tracer=RingBufferTracer(),
            metrics=Metrics(sample_interval=100.0),
            profiler=Profiler(),
        )

    def test_easy_engine_identity(self):
        wl = make_workload(seed=1)
        for bf in (EASY, relaxed(0.2), adaptive_relaxed(0.2)):
            base = simulate(wl, CAPACITY, "fcfs", bf)
            obs = simulate(wl, CAPACITY, "fcfs", bf, **self.sinks())
            assert np.array_equal(obs.start, base.start)
            assert np.array_equal(obs.promised, base.promised, equal_nan=True)
            assert np.array_equal(obs.backfilled, base.backfilled)

    def test_conservative_engine_identity(self):
        wl = make_workload(seed=2)
        base = simulate_conservative(wl, CAPACITY)
        obs = simulate_conservative(wl, CAPACITY, **self.sinks())
        assert np.array_equal(obs.start, base.start)
        assert np.array_equal(obs.promised, base.promised, equal_nan=True)

    def test_fault_engine_identity(self):
        wl = make_workload(seed=3)
        base = simulate_with_faults(wl, CAPACITY, "fcfs", EASY, FAULTS)
        obs = simulate_with_faults(
            wl, CAPACITY, "fcfs", EASY, FAULTS, **self.sinks()
        )
        assert np.array_equal(obs.start, base.start)
        assert np.array_equal(obs.end, base.end)
        assert np.array_equal(obs.status, base.status)
        assert np.array_equal(obs.attempt_outcome, base.attempt_outcome)

    def test_null_tracer_emits_nothing_and_matches(self):
        wl = make_workload(seed=4)
        base = simulate(wl, CAPACITY, "fcfs", EASY)
        obs = simulate(wl, CAPACITY, "fcfs", EASY, tracer=NullTracer())
        assert np.array_equal(obs.start, base.start)


# ----------------------------------------------------- stream-level invariants
class TestStreamInvariants:
    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_easy_streams_audit_clean(self, workload):
        for bf in (EASY, adaptive_relaxed(0.2)):
            tracer = RingBufferTracer()
            simulate(workload, CAPACITY, "fcfs", bf, tracer=tracer)
            assert check_events(tracer.events) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_conservative_streams_audit_clean(self, workload):
        tracer = RingBufferTracer()
        simulate_conservative(workload, CAPACITY, tracer=tracer)
        assert check_events(tracer.events) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_fault_streams_audit_clean(self, workload):
        tracer = RingBufferTracer()
        simulate_with_faults(
            workload, CAPACITY, "fcfs", EASY, FAULTS, tracer=tracer
        )
        assert check_events(tracer.events) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_every_start_has_submit_and_counts_match(self, workload):
        tracer = RingBufferTracer()
        simulate(workload, CAPACITY, "fcfs", EASY, tracer=tracer)
        events = tracer.events
        counts = summarize_events(events)
        assert counts["submit"] == workload.n
        assert counts["start"] == workload.n
        assert counts["finish"] == workload.n
        times = [e["t"] for e in events]
        assert times == sorted(times)


# ------------------------------------------------- frozen conservative streams
def _conservative_stream(workload, policy, kill):
    """Decoded event stream of one traced conservative run."""
    rec = ColumnarRecorder()
    simulate_conservative(
        workload, CAPACITY, policy, kill_at_walltime=kill, tracer=rec
    )
    return rec.to_events()


def _conservative_reference_cases(tmp_path) -> dict:
    """What the conservative engine emits for every ``conservative/...``
    case of the frozen stream record."""
    cases = {}
    for seed in range(6):
        wl = random_workload(np.random.default_rng((99, seed)), capacity=CAPACITY)
        # halved walltimes, assigned after construction (as
        # repro.sched.predictive does): SimWorkload clamps walltime >=
        # runtime, so otherwise kill_at_walltime would clip nothing
        short = random_workload(np.random.default_rng((99, seed)), capacity=CAPACITY)
        short.walltime = short.walltime * 0.5
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            cases[f"conservative/matrix/{seed}/{policy}/nokill"] = (
                _conservative_stream(wl, policy, False)
            )
            cases[f"conservative/matrix/{seed}/{policy}/kill"] = (
                _conservative_stream(short, policy, True)
            )
    path = tmp_path / "conservative.jsonl"
    with JsonlTracer(path) as tracer:
        simulate_conservative(make_workload(n=100, seed=11), CAPACITY, "sjf", tracer=tracer)
    cases["conservative/jsonl_tracer"] = path.read_text()
    wl = make_workload(n=150, seed=7)
    for policy in ("fcfs", "sjf"):
        metrics = Metrics(sample_interval=250.0)
        simulate_conservative(wl, CAPACITY, policy, metrics=metrics)
        cases[f"conservative/metrics/{policy}"] = metrics.to_dict()
    return cases


def test_conservative_reference_streams(tmp_path, reference_golden):
    """The conservative engine emits, byte for byte, the event streams,
    JSONL file and metrics payloads the former readable conservative loop
    emitted for the same inputs (frozen in
    ``tests/goldens/reference_streams.jsonl``)."""
    got = _conservative_reference_cases(tmp_path)
    assert len(got) == 51
    for name, value in got.items():
        assert json.dumps(value) == json.dumps(reference_golden[name]), name


# -------------------------------------------------------- frozen fault streams
#: backfill mode of each ``faults/matrix/<seed>/...`` workload seed, so the
#: frozen streams cover strict, relaxed, adaptive and disabled backfilling
FAULT_STREAM_BACKFILLS = (EASY, relaxed(0.5), adaptive_relaxed(0.4), NO_BACKFILL)


def _fault_stream(workload, policy, backfill, cfg):
    """Decoded event stream of one traced fault-injected run."""
    rec = ColumnarRecorder()
    simulate_with_faults(workload, CAPACITY, policy, backfill, cfg, tracer=rec)
    return rec.to_events()


def _fault_reference_cases(tmp_path) -> dict:
    """What the fault engine emits for every ``faults/...`` case of the
    frozen stream record: every active configuration of the fuzz matrix
    on four workloads, one JSONL file and two metrics payloads."""
    cases = {}
    for seed, backfill in enumerate(FAULT_STREAM_BACKFILLS):
        wl = random_workload(np.random.default_rng((98, seed)), capacity=CAPACITY)
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            for idx, cfg in enumerate(FUZZ_FAULT_CONFIGS):
                if cfg.is_null:
                    continue
                cases[f"faults/matrix/{seed}/{policy}/{idx}"] = _fault_stream(
                    wl, policy, backfill, cfg
                )
    path = tmp_path / "faults.jsonl"
    with JsonlTracer(path) as tracer:
        simulate_with_faults(
            make_workload(n=100, seed=11), CAPACITY, "sjf", EASY, FAULTS,
            tracer=tracer,
        )
    cases["faults/jsonl_tracer"] = path.read_text()
    wl = make_workload(n=150, seed=7)
    for policy in ("fcfs", "sjf"):
        metrics = Metrics(sample_interval=250.0)
        simulate_with_faults(wl, CAPACITY, policy, EASY, FAULTS, metrics=metrics)
        cases[f"faults/metrics/{policy}"] = metrics.to_dict()
    return cases


def test_fault_reference_streams(tmp_path, reference_golden):
    """The fault engine emits, byte for byte, the event streams, JSONL
    file and metrics payloads the former readable reference fault loop
    emitted for the same inputs (frozen in
    ``tests/goldens/reference_streams.jsonl``)."""
    got = _fault_reference_cases(tmp_path)
    assert len(got) == 67
    for name, value in got.items():
        assert json.dumps(value) == json.dumps(reference_golden[name]), name


# ------------------------------------------------------------------- replay
class TestReplay:
    def traced_run(self):
        wl = make_workload(seed=5)
        tracer = RingBufferTracer()
        res = simulate(wl, CAPACITY, "fcfs", EASY, tracer=tracer)
        return res, tracer.events

    def test_utilization_series_bounded(self):
        _, events = self.traced_run()
        times, used = utilization_series(events)
        assert len(times) == len(used) > 0
        assert np.all(used >= 0) and np.all(used <= CAPACITY)
        assert used[-1] == 0  # everything finished

    def test_utilization_requires_capacity(self):
        with pytest.raises(ValueError):
            utilization_series([make_event(ev.SUBMIT, 0.0, 0)])

    def test_render_timeline(self):
        _, events = self.traced_run()
        text = render_timeline(events, bins=8)
        assert "schedule timeline" in text
        assert f"capacity {CAPACITY}" in text


# ---------------------------------------------------------------- acceptance
class TestAcceptance:
    def test_traced_fault_run_jsonl(self, tmp_path):
        """Acceptance: an ext_resilience-style run emits a parseable JSONL
        stream with submit/start/finish, backfill and fault events whose
        core accounting replays exactly."""
        wl = make_workload(n=250, seed=11, span=20_000.0)
        cfg = FaultConfig.from_workload(
            wl,
            node_mtbf=5_000.0,
            node_mttr=500.0,
            n_nodes=4,
            max_attempts=3,
            backoff_base=30.0,
            seed=3,
        )
        path = tmp_path / "run" / "events.jsonl"
        path.parent.mkdir(parents=True)
        with JsonlTracer(path) as tracer:
            simulate(
                wl, CAPACITY, "fcfs", adaptive_relaxed(0.1),
                faults=cfg, tracer=tracer,
            )
        events = read_records(path)
        counts = summarize_events(events)
        for kind in (ev.RUN_START, ev.SUBMIT, ev.START, ev.FINISH,
                     ev.BACKFILL, ev.NODE_FAIL, ev.RUN_END):
            assert counts.get(kind, 0) > 0, f"no {kind} events captured"
        assert check_events(events) == []
