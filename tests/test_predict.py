"""Tests for the runtime-prediction use case (features, models, harness)."""

import numpy as np
import pytest

from repro.predict import (
    FEATURE_NAMES,
    MODEL_NAMES,
    augment_with_checkpoints,
    build_dataset,
    make_predictor,
    run_use_case1,
)
from repro.traces.synth import generate_trace


@pytest.fixture(scope="module")
def theta_trace():
    return generate_trace("theta", days=8, seed=5)


@pytest.fixture(scope="module")
def dataset(theta_trace):
    return build_dataset(theta_trace)


class TestFeatures:
    def test_shapes(self, dataset, theta_trace):
        assert dataset.n == theta_trace.num_jobs
        assert dataset.X.shape == (dataset.n, len(FEATURE_NAMES))

    def test_finite(self, dataset):
        assert np.all(np.isfinite(dataset.X))
        assert np.all(np.isfinite(dataset.runtime))

    def test_no_leakage_first_job_per_user(self, dataset):
        # each user's first job must have zero history features
        for u in np.unique(dataset.user)[:10]:
            first = np.flatnonzero(dataset.user == u)[0]
            # log_last_runtime, log_last2_mean, log_user_mean, count
            assert dataset.X[first, 1] == 0.0
            assert dataset.X[first, 2] == 0.0
            assert dataset.X[first, 3] == 0.0

    def test_last2_positive(self, dataset):
        assert np.all(dataset.last2 > 0)

    def test_last2_matches_history(self):
        # hand-built trace: one user, runtimes 100, 200, 400
        from repro.frame import Frame
        from repro.traces import THETA, Trace

        tr = Trace(
            system=THETA,
            jobs=Frame(
                {
                    "submit_time": [0.0, 10.0, 20.0],
                    "runtime": [100.0, 200.0, 400.0],
                    "cores": [64, 64, 64],
                    "user_id": [5, 5, 5],
                }
            ),
        )
        data = build_dataset(tr)
        # 3rd job's last2 = geometric mean of logs of (100, 200)
        expected = np.exp((np.log(100) + np.log(200)) / 2)
        assert data.last2[2] == pytest.approx(expected)
        # 2nd job falls back to the only prior runtime
        assert data.last2[1] == pytest.approx(100.0)

    def test_censored_flags_killed(self, dataset, theta_trace):
        assert dataset.censored.sum() == (theta_trace["status"] == 2).sum()

    def test_with_elapsed_adds_column(self, dataset):
        X = dataset.with_elapsed(120.0)
        assert X.shape[1] == dataset.X.shape[1] + 1
        assert np.allclose(X[:, -1], np.log1p(120.0))

    def test_subset(self, dataset):
        sub = dataset.subset(np.arange(dataset.n) < 10)
        assert sub.n == 10


class TestAugmentation:
    def test_rows_multiply(self, dataset):
        X_aug, data_aug = augment_with_checkpoints(dataset, threshold=600.0)
        assert len(X_aug) == data_aug.n
        assert len(X_aug) > dataset.n  # at least the elapsed-0 copy + survivors

    def test_elapsed_column_consistent(self, dataset):
        X_aug, data_aug = augment_with_checkpoints(dataset, threshold=600.0)
        elapsed = np.expm1(X_aug[:, -1])
        # every augmented row's job survived its elapsed checkpoint
        assert np.all(data_aug.runtime > elapsed - 1e-6)


class TestPredictors:
    def test_all_models_fit_predict(self, dataset):
        train = dataset.subset(np.arange(dataset.n) < dataset.n // 2)
        test = dataset.subset(np.arange(dataset.n) >= dataset.n // 2)
        for name in MODEL_NAMES:
            predictor = make_predictor(name).fit(train, train.X)
            pred = predictor.predict(test, test.X)
            assert pred.shape == (test.n,), name
            assert np.all(pred > 0), name

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            make_predictor("transformer")

    def test_last2_uses_heuristic_column(self, dataset):
        predictor = make_predictor("last2").fit(dataset, dataset.X)
        pred = predictor.predict(dataset, dataset.X)
        assert np.array_equal(pred, dataset.last2)

    def test_last2_floors_at_elapsed(self, dataset):
        predictor = make_predictor("last2").fit(dataset, dataset.X)
        X = dataset.with_elapsed(1e6)
        pred = predictor.predict(dataset, X)
        assert np.all(pred >= 1e6)


class TestHarness:
    def test_full_run_structure(self, theta_trace):
        cmp = run_use_case1(
            theta_trace,
            fractions=(0.25,),
            models=("last2", "lr"),
            max_jobs=1500,
        )
        assert cmp.system == "Theta"
        arms = {(r.model, r.arm) for r in cmp.results}
        assert arms == {
            ("last2", "baseline"),
            ("last2", "elapsed"),
            ("lr", "baseline"),
            ("lr", "elapsed"),
        }

    def test_metrics_in_range(self, theta_trace):
        cmp = run_use_case1(
            theta_trace, fractions=(0.25,), models=("lr",), max_jobs=1500
        )
        for r in cmp.results:
            assert 0.0 <= r.underestimate_rate <= 1.0
            assert 0.0 <= r.avg_accuracy <= 1.0

    def test_elapsed_reduces_underestimation(self, theta_trace):
        # the paper's headline: elapsed-time feature cuts underestimation
        cmp = run_use_case1(
            theta_trace, fractions=(0.5,), models=("lr",), max_jobs=2500
        )
        base = cmp.cell("lr", 0.5, "baseline")
        elap = cmp.cell("lr", 0.5, "elapsed")
        assert elap.underestimate_rate < base.underestimate_rate

    def test_cell_lookup_missing(self, theta_trace):
        cmp = run_use_case1(
            theta_trace, fractions=(0.25,), models=("lr",), max_jobs=1500
        )
        with pytest.raises(KeyError):
            cmp.cell("lr", 0.9, "baseline")

    def test_baseline_fitted_once_per_model(self, theta_trace, monkeypatch):
        import repro.predict.harness as harness

        n_base = len(FEATURE_NAMES)
        fits = {"baseline": 0, "elapsed": 0}

        def counting(name):
            predictor = make_predictor(name)
            fit = predictor.fit

            def counted(data, X):
                # the elapsed arm's design matrix carries one extra column
                fits["baseline" if X.shape[1] == n_base else "elapsed"] += 1
                return fit(data, X)

            predictor.fit = counted
            return predictor

        monkeypatch.setattr(harness, "make_predictor", counting)
        cmp = run_use_case1(theta_trace, max_jobs=300)
        assert fits == {"baseline": 5, "elapsed": 15}
        baseline_rows = [t for t in cmp.timings if t.arm == "baseline"]
        assert sorted(t.model for t in baseline_rows) == sorted(MODEL_NAMES)
        assert all(t.elapsed_fraction is None for t in baseline_rows)
        assert len(cmp.results) == 30

    def test_baseline_cell_independent_of_other_fractions(self, theta_trace):
        # one shared baseline fit gives each cell what a fit of its own did
        models = ("lr", "mlp")
        both = run_use_case1(
            theta_trace, fractions=(0.125, 0.5), models=models, max_jobs=800
        )
        alone = run_use_case1(
            theta_trace, fractions=(0.5,), models=models, max_jobs=800
        )
        for model in models:
            assert both.cell(model, 0.5, "baseline") == alone.cell(
                model, 0.5, "baseline"
            )

    def test_too_small_trace_rejected(self):
        tr = generate_trace("theta", days=0.5, seed=1, jobs_per_day=60)
        assert tr.num_jobs < 50
        with pytest.raises(ValueError, match="too small"):
            run_use_case1(tr)


class TestExtraPredictors:
    def test_extra_models_fit_predict(self, dataset):
        from repro.predict import EXTRA_MODEL_NAMES

        train = dataset.subset(np.arange(dataset.n) < 800)
        test = dataset.subset(
            (np.arange(dataset.n) >= 800) & (np.arange(dataset.n) < 1000)
        )
        for name in EXTRA_MODEL_NAMES:
            predictor = make_predictor(name).fit(train, train.X)
            pred = predictor.predict(test, test.X)
            assert pred.shape == (test.n,), name
            assert np.all(pred > 0), name

    def test_quantile_model_underestimates_less(self, dataset):
        train = dataset.subset(np.arange(dataset.n) < 1500)
        test = dataset.subset(np.arange(dataset.n) >= 1500)
        mean_model = make_predictor("lr").fit(train, train.X)
        q_model = make_predictor("xgb_q90").fit(train, train.X)
        from repro.ml import underestimation_rate

        under_mean = underestimation_rate(
            test.runtime, mean_model.predict(test, test.X)
        )
        under_q = underestimation_rate(
            test.runtime, q_model.predict(test, test.X)
        )
        assert under_q < under_mean
