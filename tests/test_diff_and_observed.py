"""Tests for the results-diff tool."""

import json

import pytest

from repro.experiments import run_experiment
from repro.experiments.diff import diff_results


class TestDiffResults:
    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        a = tmp_path_factory.mktemp("before")
        b = tmp_path_factory.mktemp("after")
        result = run_experiment("table1")
        result.save(a)
        result.save(b)
        return a, b

    def test_identical_dirs_clean(self, dirs):
        a, b = dirs
        report = diff_results(a, b)
        assert report.clean
        assert report.compared_values > 0
        assert "identical" in str(report)

    def test_numeric_drift_detected(self, dirs, tmp_path):
        a, _ = dirs
        mutated = tmp_path / "mutated"
        mutated.mkdir()
        payload = json.loads((a / "table1.json").read_text())
        payload["data"]["selected"][0] = "NotMira"
        (mutated / "table1.json").write_text(json.dumps(payload))
        report = diff_results(a, mutated)
        assert not report.clean
        assert any("selected" in d.path for d in report.drifted)

    def test_tolerance_respected(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "x.json").write_text(json.dumps({"data": {"v": 100.0}}))
        (b / "x.json").write_text(json.dumps({"data": {"v": 103.0}}))
        assert diff_results(a, b, rtol=0.05).clean
        assert not diff_results(a, b, rtol=0.01).clean

    def test_missing_and_added(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "x.json").write_text(json.dumps({"data": {}}))
        (b / "y.json").write_text(json.dumps({"data": {}}))
        report = diff_results(a, b)
        assert report.missing == ["x"]
        assert report.added == ["y"]

    def test_nan_equal(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "x.json").write_text(json.dumps({"data": {"v": None}}))
        (b / "x.json").write_text(json.dumps({"data": {"v": None}}))
        assert diff_results(a, b).clean
