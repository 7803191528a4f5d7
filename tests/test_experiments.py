"""Integration tests: every experiment runs end-to-end and reproduces the
paper's qualitative shapes at a reduced scale."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import REGISTRY, ExperimentResult, run_experiment
from repro.experiments.__main__ import main as cli_main

DAYS = 5.0
SEED = 0

CHEAP = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
]


@pytest.fixture(scope="module")
def results():
    return {
        exp: run_experiment(exp, days=DAYS, seed=SEED) for exp in CHEAP
    }


def test_registry_complete():
    # one entry per paper artifact (2 tables + 12 figures) + extensions
    paper = {f"fig{i}" for i in range(1, 13)} | {"table1", "table2"}
    assert paper <= set(REGISTRY)
    extensions = {k for k in REGISTRY if k.startswith("ext_")}
    assert len(extensions) >= 3


def test_all_cheap_experiments_render(results):
    for exp, result in results.items():
        text = result.render()
        assert result.exp_id == exp
        assert len(text) > 100, exp


class TestShapes:
    """The paper's headline qualitative claims at test scale."""

    def test_table1_selection(self, results):
        data = results["table1"].data
        assert set(data["selected"]) == {
            "Mira",
            "Theta",
            "Blue Waters",
            "Philly",
            "Helios",
        }
        assert "Supercloud" in data["excluded"]

    def test_fig1_dl_runtimes_shorter(self, results):
        d = results["fig1"].data
        assert d["helios"]["median_runtime"] < d["philly"]["median_runtime"]
        assert d["philly"]["median_runtime"] < d["mira"]["median_runtime"]

    def test_fig1_arrival_intervals(self, results):
        d = results["fig1"].data
        # HPC intervals ~10x DL intervals (paper: 100s vs 5-10s)
        assert d["mira"]["median_interval"] > 5 * d["philly"]["median_interval"]
        assert d["blue_waters"]["median_interval"] < 30

    def test_fig1_dl_single_gpu_dominates(self, results):
        d = results["fig1"].data
        assert d["philly"]["single_unit_fraction"] > 0.6
        assert d["helios"]["single_unit_fraction"] > 0.6
        assert d["mira"]["single_unit_fraction"] < 0.05

    def test_fig2_blue_waters_small_dominates(self, results):
        d = results["fig2"].data
        assert d["blue_waters"]["by_size"][0] > 0.85

    def test_fig2_dl_long_heavy(self, results):
        d = results["fig2"].data
        # DL long-job core-hour share far above HPC's
        assert d["philly"]["by_length"][2] > 5 * d["mira"]["by_length"][2]

    def test_fig3_philly_lowest_util(self, results):
        d = results["fig3"].data
        assert d["philly/gpu"]["average"] < d["mira/cpu"]["average"]

    def test_fig4_wait_ordering(self, results):
        d = results["fig4"].data
        assert d["helios"]["median_wait"] < 20  # 80% under 10s in the paper
        assert d["blue_waters"]["median_wait"] > d["philly"]["median_wait"]

    def test_fig5_long_jobs_wait_longest(self, results):
        d = results["fig5"].data
        for system, cells in d.items():
            # skip classes too thin to have a stable mean at test scale
            pairs = [
                (v, c)
                for v, c in zip(cells["by_length"], cells["length_counts"])
                if np.isfinite(v) and c >= 20
            ]
            values = [v for v, _ in pairs]
            assert values[-1] == max(values), system

    def test_fig6_passed_below_70(self, results):
        d = results["fig6"].data
        for system, cells in d.items():
            assert cells["count_shares"][0] < 0.80, system

    def test_fig6_killed_amplified(self, results):
        d = results["fig6"].data
        for system, cells in d.items():
            killed_count = cells["count_shares"][2]
            killed_hours = cells["core_hour_shares"][2]
            assert killed_hours > killed_count, system

    def test_fig7_pass_falls_with_length(self, results):
        d = results["fig7"].data
        for system, cells in d.items():
            series = [v for v in cells["pass_by_length"] if v is not None]
            assert series[-1] < series[0], system

    def test_fig8_repetition_levels(self, results):
        d = results["fig8"].data
        assert d["mira"]["curve"][2] > 0.75      # HPC top-3 > ~80%
        assert d["philly"]["curve"][2] < 0.65    # DL top-3 < ~60%

    def test_fig9_minimal_grows_with_queue(self, results):
        d = results["fig9"].data
        grown = 0
        for system, cells in d.items():
            mf = [v for v in cells["minimal_fraction"] if np.isfinite(v)]
            if len(mf) >= 2 and mf[-1] >= mf[0]:
                grown += 1
        assert grown >= 3  # the trend holds across most systems (paper wording)

    def test_fig10_dl_runtime_shrinks(self, results):
        d = results["fig10"].data
        mf = [v for v in d["philly"]["minimal_fraction"] if np.isfinite(v)]
        assert mf[-1] >= mf[0]

    def test_fig11_status_separation_exists(self, results):
        d = results["fig11"].data
        seps = [u["separation_log10"] for cells in d.values() for u in cells.values()]
        assert max(seps) > 0.3


class TestExpensiveExperiments:
    def test_fig12_shape(self):
        result = run_experiment(
            "fig12",
            days=DAYS,
            seed=SEED,
            systems=("theta",),
            fractions=(0.25,),
            models=("lr", "xgboost"),
            max_jobs=2000,
        )
        cells = result.data["theta"]
        for model in ("lr", "xgboost"):
            assert (
                cells[f"{model}/0.25/elapsed"]["under"]
                <= cells[f"{model}/0.25/baseline"]["under"] + 0.02
            )

    def test_table2_shape(self):
        result = run_experiment("table2", days=DAYS, seed=SEED, max_jobs=2500)
        for system, cells in result.data.items():
            assert cells["adaptive"]["util"] > 0.1, system
            # adaptive must not increase violations materially
            assert (
                cells["adaptive"]["violation"]
                <= cells["relaxed"]["violation"] * 1.1 + 1.0
            ), system


class TestCli:
    def test_cli_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table2" in out

    def test_cli_single(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Mira" in capsys.readouterr().out

    def test_cli_unknown(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        assert cli_main(["fig99", "--journal", str(journal)]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and all(exp_id in err for exp_id in REGISTRY)
        assert not journal.exists()

    def test_cli_all_runs_in_registry_order(self, monkeypatch, capsys):
        ran = []

        def fake_module(exp_id):
            def run(days, seed):
                ran.append(exp_id)
                return ExperimentResult(exp_id=exp_id, title="stub")

            return SimpleNamespace(run=run)

        monkeypatch.setattr(
            "repro.experiments.__main__.experiment_module", fake_module
        )
        assert cli_main(["all"]) == 0
        assert ran == list(REGISTRY)


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99")
