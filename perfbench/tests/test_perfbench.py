"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

The end-to-end tests run every workload once (about three minutes on a
2-core machine).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, run, spans  # noqa: E402

run.bootstrap()

from perfbench.workloads import WORKLOADS, load_references  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_metric_and_workload_names_are_well_formed():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    declared += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(set(declared)) == len(declared)
    for name in declared + list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(workload):
    out = run_benchmark("--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


def test_traced_run_emits_every_per_layer_metric():
    out = run_benchmark("--workload", "usecases", "--seed", "0", "--seconds", "1",
                        "--trace", "1")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["trace.coverage"]["value"] >= 0.9
    for name in ("sched.jobs", "runner.cache_hits", "ml.fits", "self_s.ml"):
        assert metrics[name]["value"] > 0, name
    assert "named layers cover" in out.stdout


def test_run_without_source_tree_fails_without_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run_benchmark("--workload", "usecases", "--seed", "0", "--seconds",
                            "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""


def _pass(ops):
    return run.Pass(traced=False, wall=1.0, cpu=1.0, ops=ops, error=None)


def test_perturbed_reference_makes_error_rate_positive():
    reference = load_references("usecases")["0"]
    passes = [_pass(json.loads(json.dumps(reference))) for _ in range(2)]
    assert run.score(passes, reference)[:2] == (2 * len(reference), 0)

    perturbed = json.loads(json.dumps(reference))
    op = "table2/mira/relaxed"
    perturbed[op]["wait"] *= 1.0 + 1e-12
    attempted, failed, notes = run.score(passes, perturbed)
    assert failed == 2 and failed / attempted > 0
    assert notes[0] == f"output differs: {op}"


def test_raising_pass_fails_all_its_operations():
    reference = load_references("usecases")["0"]
    broken = run.Pass(False, 1.0, 1.0, None, "Traceback\nValueError: boom\n")
    attempted, failed, notes = run.score([_pass(reference), broken], reference)
    assert (attempted, failed) == (2 * len(reference), len(reference))
    assert notes == ["ValueError: boom"]


def test_scaled_times_use_the_adjacent_probes():
    ref = hostspeed.REFERENCE_S
    # three timings between four probes: the host at reference speed, at
    # half speed, and at reference speed in one probe, a third in the other
    probes = [[ref, ref], [ref, ref], [2 * ref, 2 * ref], [ref, 3 * ref]]
    assert hostspeed.scaled([1.0, 3.0, 4.0], probes) == pytest.approx([1.0, 2.0, 2.0])
    with pytest.raises(AssertionError):
        hostspeed.scaled([1.0], [[ref]])


def test_probe_times_each_run_of_the_reference_work():
    times = hostspeed.probe()
    assert len(times) == hostspeed.PROBE_REPEATS
    assert all(0.0 < t < 10.0 for t in times)


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on
    # [3, 4]; a has a child c [2, 3]; d [12, 13] lies outside any parent
    tree = [
        spans.Span("bench.pass", 0.0, 10.0, None),
        spans.Span("core.geometry", 1.0, 4.0, 0),
        spans.Span("sched.engine", 3.0, 6.0, 0),
        spans.Span("viz.text", 2.0, 3.0, 1),
        spans.Span("io.json", 12.0, 13.0, None),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 3.0, 1.0, 1.0]
    assert spans.totals(tree, spans.layer_of) == {
        "bench": 5.0, "core": 2.0, "sched": 3.0, "viz": 1.0, "io": 1.0,
    }


def test_recorder_nests_spans_and_wrap_preserves_results():
    rec = spans.Recorder()
    double = rec.wrap("ml.fit.lr", lambda x: 2 * x)
    with rec.span("bench.pass"):
        assert double(21) == 42
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("bench.pass", None), ("ml.fit.lr", 0),
    ]
    outer, inner = rec.spans
    assert outer.start <= inner.start <= inner.end <= outer.end
