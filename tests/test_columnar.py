"""Columnar trace recording + job-characterization analytics.

The contract under test (docs/OBSERVABILITY.md, "Columnar recording"):

* :class:`repro.obs.ColumnarRecorder` decodes back to the *identical*
  typed dict stream a live ``Tracer`` receives — same kinds, same
  fields, same key order, same values — so every stream consumer
  (``check_events``, ``utilization_series``, ``repro analyze``) works
  unchanged on either source.  The expected streams and metrics payloads
  are the former reference EASY loop's per-event emission, frozen in
  ``tests/goldens/reference_streams.jsonl`` before that loop was deleted;
  a plain tracer passed to the engine receives the decoded stream by
  replay;
* the engine with recording attached stays **bit-identical** to the
  uninstrumented run;
* events outside the five hot-path layouts (run headers, fault-engine
  events) round-trip through the overflow side list, so the recorder
  serves *any* engine as a tracer;
* ``.npz`` persistence is exact, and the CLI (``--trace-out x.npz``,
  ``repro analyze``) wires it all together.

A byte-exact golden of one seeded fast-engine stream lives under
``tests/goldens/columnar_stream.jsonl``; regenerate deliberate changes
with ``REPRO_UPDATE_GOLDENS=1`` (see docs/TESTING.md).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.obs import (
    ColumnarRecorder,
    JsonlTracer,
    Metrics,
    RingBufferTracer,
    analyze_events,
    check_events,
    load_events,
    render_timeline,
    run_start_capacity,
    summarize_events,
    utilization_series,
)
from repro.sched import (
    EASY,
    NO_BACKFILL,
    FaultConfig,
    SimWorkload,
    adaptive_relaxed,
    relaxed,
    simulate_fast,
    simulate_with_faults,
)
from repro.testkit import random_workload

CAPACITY = 16

GOLDEN_DIR = Path(__file__).parent / "goldens"

BACKFILLS = {
    "none": NO_BACKFILL,
    "easy": EASY,
    "relaxed": relaxed(0.5),
    "adaptive": adaptive_relaxed(0.4),
}


def _write_jsonl(path: Path, events: list[dict]) -> None:
    """The portable text form of a decoded stream: one compact JSON object
    per event."""
    path.write_text(
        "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events),
        encoding="utf-8",
    )


def _workload(n: int = 200, seed: int = 123) -> SimWorkload:
    """Seeded mid-size workload with enough pressure for reservations
    and backfills (integer-valued fields: fully deterministic)."""
    rng = np.random.default_rng(seed)
    submit = np.cumsum(rng.integers(0, 60, n)).astype(float)
    runtime = rng.integers(1, 500, n).astype(float)
    return SimWorkload(
        submit=submit,
        cores=rng.integers(1, 12, n).astype(np.int64),
        runtime=runtime,
        walltime=runtime + rng.integers(0, 120, n),
        user=rng.integers(0, 6, n).astype(np.int64),
    )


def _canon(events) -> list[str]:
    """Canonical JSON lines with the run_start engine provenance field
    masked."""
    return [
        json.dumps(
            {**e, "engine": "*"} if e.get("kind") == "run_start" else e,
            separators=(",", ":"),
        )
        for e in events
    ]


def _fast_stream(wl, capacity, policy, backfill):
    rec = ColumnarRecorder()
    simulate_fast(wl, capacity, policy, backfill, tracer=rec)
    return rec.to_events()


# ----------------------------------------------------------------------
# recorder unit behavior


class TestRecorder:
    def test_emit_decodes_with_reference_key_order(self):
        rec = ColumnarRecorder()
        rec.emit("submit", 1.0, 7, submitted=1.0, cores=4, queue=2, user=3)
        rec.emit("start", 2.0, 7, cores=4, free=12, queue=1, wait=1.0)
        rec.emit("finish", 5.0, 7, cores=4, free=16, outcome="completed")
        (sub, start, fin) = rec.to_events()
        assert list(sub) == ["kind", "t", "job", "submitted", "cores", "queue", "user"]
        assert list(start) == ["kind", "t", "job", "cores", "free", "queue", "wait"]
        assert list(fin) == ["kind", "t", "job", "cores", "free", "outcome"]
        assert start == {
            "kind": "start", "t": 2.0, "job": 7,
            "cores": 4, "free": 12, "queue": 1, "wait": 1.0,
        }
        assert fin["outcome"] == "completed"

    def test_overflow_preserves_stream_position(self):
        rec = ColumnarRecorder()
        rec.emit("run_start", 0.0, capacity=8, n_jobs=1)  # overflow (no job)
        rec.emit("submit", 1.0, 0, submitted=1.0, cores=1, queue=1, user=0)
        rec.emit("retry", 2.0, 0, attempt=1)  # overflow (not a hot kind)
        rec.emit("start", 3.0, 0, cores=1, free=7, queue=1, wait=2.0)
        rec.emit("run_end", 4.0, makespan=4.0)  # overflow (trailing)
        kinds = [e["kind"] for e in rec.to_events()]
        assert kinds == ["run_start", "submit", "retry", "start", "run_end"]
        assert rec.count == 5
        assert len(rec) == 5

    def test_hot_kind_with_extra_fields_goes_to_overflow(self):
        rec = ColumnarRecorder()
        rec.emit(
            "submit", 1.0, 0,
            submitted=1.0, cores=1, queue=1, user=0, resubmitted=True,
        )
        events = rec.to_events()
        assert events[0]["resubmitted"] is True  # kept verbatim

    def test_growth_from_tiny_capacity(self):
        rec = ColumnarRecorder(capacity=16)
        n = 1000
        ones = np.ones(n, dtype=np.int32)
        rec.append_arrays(
            np.full(n, 2, dtype=np.int8), np.arange(n, dtype=float),
            np.arange(n), ones, ones, np.zeros(n, dtype=np.int64),
            np.arange(n, dtype=float), np.zeros(n),
        )
        events = rec.to_events()
        assert len(events) == 1000
        assert events[-1]["t"] == 999.0

    def test_npz_roundtrip_exact(self, tmp_path):
        wl = _workload(n=80, seed=5)
        rec = ColumnarRecorder()
        simulate_fast(wl, CAPACITY, "sjf", EASY, tracer=rec)
        path = tmp_path / "trace.npz"
        rec.save(path)
        loaded = ColumnarRecorder.load(path)
        assert _canon(loaded.to_events()) == _canon(rec.to_events())

    def test_close_writes_default_path(self, tmp_path):
        path = tmp_path / "auto.npz"
        with ColumnarRecorder(path) as rec:
            rec.emit("start", 1.0, 0, cores=1, free=7, queue=0, wait=0.0)
        assert path.exists()
        assert ColumnarRecorder.load(path).to_events() == rec.to_events()

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        rec = ColumnarRecorder()
        rec.emit("start", 1.0, 0, cores=1, free=7, queue=0, wait=0.0)
        rec.save(path)
        import numpy as np_

        with np_.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"][()]))
        meta["version"] = 999
        arrays["meta"] = np_.asarray(json.dumps(meta))
        with open(path, "wb") as fh:
            np_.savez(fh, **arrays)
        with pytest.raises(ValueError, match="version"):
            ColumnarRecorder.load(path)

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            ColumnarRecorder().save()


# ----------------------------------------------------------------------
# fast-engine stream identity


class TestFastStreamIdentity:
    def test_matrix_identical_to_reference(self, reference_golden):
        """Policies x backfill modes x seeds: decoded columnar streams are
        byte-identical to the reference loop's frozen live emission."""
        for seed in range(6):
            wl = random_workload(
                np.random.default_rng((99, seed)), capacity=CAPACITY
            )
            for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
                for bf_name, bf in BACKFILLS.items():
                    ref = reference_golden[f"matrix/{seed}/{policy}/{bf_name}"]
                    fast = _fast_stream(wl, CAPACITY, policy, bf)
                    label = f"seed {seed} {policy}+{bf_name}"
                    assert _canon(fast) == _canon(ref), label
                    assert check_events(fast) == [], label

    def test_stream_consumers_work_unchanged(self, reference_golden):
        wl = _workload(n=120, seed=3)
        fast = _fast_stream(wl, CAPACITY, "fcfs", EASY)
        ref = reference_golden["consumers"]
        assert summarize_events(fast) == summarize_events(ref)
        t_f, u_f = utilization_series(fast)
        t_r, u_r = utilization_series(ref)
        assert np.array_equal(t_f, t_r) and np.array_equal(u_f, u_r)
        assert render_timeline(fast) == render_timeline(ref)

    def test_jsonl_tracer_adapter_byte_identical(
        self, tmp_path, reference_golden
    ):
        """A plain JsonlTracer passed to the fast engine receives the
        decoded stream on completion — bytes match the file the reference
        loop wrote."""
        wl = _workload(n=100, seed=11)
        fast_path = tmp_path / "fast.jsonl"
        with JsonlTracer(fast_path) as tracer:
            simulate_fast(wl, CAPACITY, "sjf", EASY, tracer=tracer)
        ref_lines = reference_golden["jsonl_tracer"].splitlines()
        fast_lines = fast_path.read_text().splitlines()
        assert ref_lines[0].replace('"easy"', '"fast"') == fast_lines[0]
        assert ref_lines[1:] == fast_lines[1:]

    def test_metrics_payload_identical_to_reference(self, reference_golden):
        wl = _workload(n=150, seed=7)
        for policy, bf in (("fcfs", EASY), ("sjf", relaxed(0.5))):
            m_fast = Metrics()
            simulate_fast(wl, CAPACITY, policy, bf, metrics=m_fast)
            ref = reference_golden[f"metrics/{policy}"]
            assert json.dumps(m_fast.to_dict()) == json.dumps(ref), policy

    def test_recording_does_not_change_schedule(self):
        wl = _workload(n=150, seed=9)
        plain = simulate_fast(wl, CAPACITY, "sjf", EASY, track_queue=True)
        rec = ColumnarRecorder()
        traced = simulate_fast(
            wl, CAPACITY, "sjf", EASY, track_queue=True,
            tracer=rec, metrics=Metrics(),
        )
        assert np.array_equal(plain.start, traced.start)
        assert np.array_equal(plain.promised, traced.promised, equal_nan=True)
        assert np.array_equal(plain.backfilled, traced.backfilled)
        assert np.array_equal(plain.queue_samples, traced.queue_samples)

    def test_disabled_tracer_skips_recording(self):
        class Disabled:
            enabled = False
            events = ()

            def emit(self, *a, **k):  # pragma: no cover - must not run
                raise AssertionError("disabled tracer received an event")

        simulate_fast(_workload(n=30, seed=1), CAPACITY, tracer=Disabled())


# ----------------------------------------------------------------------
# any-engine tracer: fault runs through the overflow path


class TestFaultTraces:
    def test_fault_run_roundtrips_through_recorder(self):
        wl = _workload(n=60, seed=21)
        cfg = FaultConfig(node_mtbf=3600.0, n_nodes=4)
        ring = RingBufferTracer(capacity=1 << 20)
        simulate_with_faults(wl, CAPACITY, "fcfs", EASY, faults=cfg, tracer=ring)
        rec = ColumnarRecorder()
        simulate_with_faults(wl, CAPACITY, "fcfs", EASY, faults=cfg, tracer=rec)
        assert _canon(rec.to_events()) == _canon(list(ring.events))


# ----------------------------------------------------------------------
# analytics


class TestAnalyze:
    def _analysis(self):
        wl = _workload(n=150, seed=13)
        rec = ColumnarRecorder()
        res = simulate_fast(wl, CAPACITY, "fcfs", EASY, tracer=rec)
        return wl, res, analyze_events(rec.to_events())

    def test_fold_matches_schedule(self):
        wl, res, a = self._analysis()
        assert a.n_jobs == wl.n
        assert a.capacity == CAPACITY
        assert a.engine == "fast"
        assert a.policy == "fcfs"
        assert a.kinds["submit"] == wl.n
        assert a.kinds["start"] == wl.n
        assert a.waits["n"] == wl.n
        assert a.backfill["jobs"] == int(res.backfilled.sum())
        waits = res.start - wl.submit
        assert a.waits["mean"] == pytest.approx(float(waits.mean()))
        assert a.waits["max"] == pytest.approx(float(waits.max()))

    def test_start_classes_partition_jobs(self):
        _, _, a = self._analysis()
        st = a.starts
        assert (
            st["direct"]["jobs"] + st["reserved"]["jobs"]
            + st["backfilled"]["jobs"] == a.n_jobs
        )
        assert st["backfilled"]["jobs"] == a.backfill["jobs"]

    def test_identical_on_reference_stream(self, reference_golden):
        ref = analyze_events(reference_golden["analyze"])
        _, _, fast = self._analysis()
        ref_d, fast_d = ref.to_dict(), fast.to_dict()
        ref_d.pop("engine"), fast_d.pop("engine")
        assert ref_d == fast_d

    def test_render_and_json(self):
        _, _, a = self._analysis()
        text = a.render()
        for title in ("trace", "job lifecycle", "start classes", "queue"):
            assert title in text
        json.dumps(a.to_dict())  # serializable, no numpy leakage

    def test_fault_stream_analytics(self):
        wl = _workload(n=60, seed=21)
        cfg = FaultConfig(node_mtbf=3600.0, n_nodes=4)
        rec = ColumnarRecorder()
        simulate_with_faults(wl, CAPACITY, "fcfs", EASY, faults=cfg, tracer=rec)
        a = analyze_events(rec.to_events())
        assert a.faults  # fault section present
        assert a.faults["node_failures"] == a.kinds.get("node_fail", 0)
        assert "faults" in a.render()
        json.dumps(a.to_dict())

    def test_capacity_override_for_headerless_stream(self):
        wl = _workload(n=40, seed=2)
        events = [
            e for e in _fast_stream(wl, CAPACITY, "fcfs", EASY)
            if e["kind"] != "run_start"
        ]
        assert run_start_capacity(events) is None
        assert run_start_capacity(events, 32) == 32
        a = analyze_events(events, capacity=CAPACITY)
        assert a.capacity == CAPACITY
        assert a.utilization["max_used"] <= CAPACITY

    def test_load_events_dispatch(self, tmp_path):
        wl = _workload(n=40, seed=2)
        rec = ColumnarRecorder()
        simulate_fast(wl, CAPACITY, "fcfs", EASY, tracer=rec)
        npz, jsonl = tmp_path / "t.npz", tmp_path / "t.jsonl"
        rec.save(npz)
        _write_jsonl(jsonl, rec.to_events())
        assert load_events(npz) == load_events(jsonl) == rec.to_events()


# ----------------------------------------------------------------------
# CLI wiring


@pytest.fixture(scope="module")
def swf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar_cli") / "trace.swf"
    assert main(["generate", "theta", "-o", str(path), "--days", "1"]) == 0
    return path


class TestCli:
    def test_fast_trace_out_npz_then_analyze(self, swf_path, tmp_path, capsys):
        npz = tmp_path / "events.npz"
        assert (
            main(
                [
                    "simulate", str(swf_path),
                    "--trace-out", str(npz),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert check_events(load_events(npz)) == []
        assert main(["analyze", str(npz)]) == 0
        out = capsys.readouterr().out
        assert "job lifecycle" in out
        assert "start classes" in out

    def test_analyze_json_output(self, swf_path, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "simulate", str(swf_path),
                    "--trace-out", str(jsonl),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", str(jsonl), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "fast"
        assert payload["n_jobs"] > 0
        assert payload["kinds"]["submit"] == payload["n_jobs"]

    def test_analyze_flag_conflicts_exit_2(self, swf_path, tmp_path, capsys):
        jsonl = tmp_path / "e.jsonl"
        assert (
            main(
                ["simulate", str(swf_path), "--trace-out", str(jsonl)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", str(jsonl), "--report", "x"]) == 2
        assert "report" in capsys.readouterr().err
        assert main(["analyze", str(swf_path), "--json"]) == 2
        assert "json" in capsys.readouterr().err


# ----------------------------------------------------------------------
# byte-exact golden


def _should_update() -> bool:
    return os.environ.get("REPRO_UPDATE_GOLDENS", "") not in ("", "0")


@pytest.mark.timeout_s(120)
def test_columnar_stream_golden(tmp_path):
    """The fast engine's decoded stream for one seeded workload, frozen
    byte for byte — any change to emission order, fields, or float values
    anywhere in the recording pipeline surfaces here.  When it was
    captured, it equalled the reference loop's live stream."""
    wl = _workload(n=200, seed=123)
    rec = ColumnarRecorder()
    simulate_fast(wl, CAPACITY, "sjf", EASY, tracer=rec)
    out = tmp_path / "stream.jsonl"
    _write_jsonl(out, rec.to_events())
    got = out.read_text()
    path = GOLDEN_DIR / "columnar_stream.jsonl"
    if _should_update():
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(got)
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing; generate with "
            "REPRO_UPDATE_GOLDENS=1 (see docs/TESTING.md)"
        )
    assert got == path.read_text(), (
        "columnar stream drifted from the golden; if intended, regenerate "
        "with REPRO_UPDATE_GOLDENS=1 and commit the diff"
    )
