"""Tests for the CrossSystemStudy orchestrator and takeaway evaluator."""

import pytest

from repro import CrossSystemStudy
from repro.core import evaluate_takeaways
from repro.experiments import get_traces, run_experiment
from repro.traces.synth import generate_trace


@pytest.fixture(scope="module")
def study():
    return CrossSystemStudy.generate(days=6, seed=7)


def test_generate_produces_five_systems(study):
    assert set(study.systems()) == {
        "mira",
        "theta",
        "blue_waters",
        "philly",
        "helios",
    }


def test_from_traces_wraps_external():
    tr = generate_trace("theta", days=1, seed=0)
    study = CrossSystemStudy.from_traces({"theta": tr})
    assert study.systems() == ["theta"]
    assert study.geometry()["theta"].runtime.median > 0


def test_every_figure_method_runs(study):
    assert len(study.geometry()) == 5
    assert len(study.core_hours()) == 5
    assert len(study.utilization(n_buckets=10)) == 5
    assert len(study.waiting()) == 5
    assert len(study.waiting_by_class()) == 5
    assert len(study.failures()) == 5
    assert len(study.failures_by_class()) == 5
    assert len(study.repetition()) == 5
    assert len(study.size_vs_queue()) == 5
    assert len(study.runtime_vs_queue()) == 5
    assert len(study.user_status_profiles(n_users=2)) == 5


def test_takeaways_mostly_hold_at_test_scale(study):
    results = study.takeaways()
    assert len(results) == 8
    assert [r.number for r in results] == list(range(1, 9))
    # short synthetic windows are noisy; the vast majority must still hold
    holding = sum(r.holds for r in results)
    assert holding >= 7


def test_takeaways_all_have_evidence(study):
    for r in study.takeaways():
        assert r.evidence, r.number
        assert str(r).startswith(f"Takeaway {r.number}")


def test_takeaways_on_subset():
    study = CrossSystemStudy.generate(days=3, seed=1, systems=["mira", "philly"])
    results = evaluate_takeaways(study.traces)
    assert len(results) == 8  # evaluator degrades gracefully on subsets


def test_prediction_entry_point(study):
    out = study.prediction(
        systems=["theta"], fractions=(0.25,), models=("lr",), max_jobs=1000
    )
    assert "theta" in out
    assert out["theta"].results


def test_backfilling_entry_point(study):
    out = study.backfilling(systems=["theta"], max_jobs=800)
    assert out["theta"].relaxed.n_jobs == 800
    assert 0 < out["theta"].adaptive.util <= 1.0


def test_backfilling_defaults_to_simulatable_systems(study):
    out = study.backfilling(max_jobs=400)
    assert set(out) == {"blue_waters", "mira", "theta"}


def test_backfilling_equals_table2():
    # experiments/table2.py runs run_use_case2's two simulations per system
    # through run_sweep; every cell must equal the serial use case exactly
    serial = CrossSystemStudy.from_traces(get_traces()).backfilling(max_jobs=2000)
    table = run_experiment("table2", max_jobs=2000).data
    assert set(table) == set(serial) == {"blue_waters", "mira", "theta"}
    for name, comparison in serial.items():
        assert table[name]["relaxed"] == comparison.relaxed.as_dict(), name
        assert table[name]["adaptive"] == comparison.adaptive.as_dict(), name
        assert table[name]["improvements"] == comparison.improvements(), name
