"""ML substrate tests: models recover known structure; metrics behave."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    QuantileGradientBoosting,
    Ridge,
    StandardScaler,
    TobitRegressor,
    mae,
    mse,
    prediction_accuracy,
    r2_score,
    train_test_split,
    underestimation_rate,
)
from repro.ml.tree import _presort

RNG = lambda s=0: np.random.default_rng(s)


def linear_data(n=400, d=3, noise=0.1, seed=0):
    rng = RNG(seed)
    X = rng.normal(size=(n, d))
    w = np.array([2.0, -1.0, 0.5])[:d]
    y = X @ w + 3.0 + noise * rng.normal(size=n)
    return X, y, w


class TestLinear:
    def test_recovers_coefficients(self):
        X, y, w = linear_data(noise=0.0)
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.coef_, w, atol=1e-8)
        assert m.intercept_ == pytest.approx(3.0)

    def test_no_intercept(self):
        X, y, _ = linear_data(noise=0.0)
        m = LinearRegression(fit_intercept=False).fit(X, y)
        assert m.intercept_ == 0.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((2, 2)))

    def test_1d_X_promoted(self):
        m = LinearRegression().fit(np.arange(10.0), 2 * np.arange(10.0))
        assert m.predict(np.array([100.0]))[0] == pytest.approx(200.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([[np.nan]]), np.array([1.0]))


class TestRidge:
    def test_alpha_zero_matches_ols(self):
        X, y, _ = linear_data()
        ols = LinearRegression().fit(X, y)
        ridge = Ridge(alpha=0.0).fit(X, y)
        assert np.allclose(ridge.coef_, ols.coef_, atol=1e-8)

    def test_shrinkage_monotone(self):
        X, y, _ = linear_data()
        norms = [
            np.linalg.norm(Ridge(alpha=a).fit(X, y).coef_)
            for a in (0.0, 10.0, 1000.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1.0)


class TestTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        m = DecisionTreeRegressor(max_depth=2, min_samples_leaf=2).fit(X, y)
        pred = m.predict(np.array([[0.2], [0.8]]))
        assert pred[0] == pytest.approx(0.0, abs=0.05)
        assert pred[1] == pytest.approx(1.0, abs=0.05)

    def test_depth_limit(self):
        X, y, _ = linear_data(n=500)
        m = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert m.depth <= 3

    def test_min_samples_leaf(self):
        X, y, _ = linear_data(n=40)
        m = DecisionTreeRegressor(max_depth=10, min_samples_leaf=20).fit(X, y)
        assert m.n_leaves <= 2

    def test_constant_target_single_leaf(self):
        X = np.arange(20.0)[:, None]
        m = DecisionTreeRegressor().fit(X, np.full(20, 7.0))
        assert m.n_leaves == 1
        assert np.all(m.predict(X) == 7.0)

    def test_beats_linear_on_nonlinear(self):
        rng = RNG(2)
        X = rng.uniform(-2, 2, size=(600, 1))
        y = np.sin(3 * X[:, 0]) + 0.05 * rng.normal(size=600)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        lin = LinearRegression().fit(X, y)
        assert mse(y, tree.predict(X)) < mse(y, lin.predict(X)) / 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 7),
        min_leaf=st.integers(1, 8),
        columns=st.sampled_from(["tied", "continuous", "mixed"]),
        keep=st.floats(0.1, 1.0),
    )
    def test_presorted_subset_matches_fit_on_subset(
        self, seed, depth, min_leaf, columns, keep
    ):
        """Growing from the whole fit's presort over a row subset, as
        boosting's subsample path does, is bitwise the fit on the subset."""
        rng = RNG(seed)
        n = 150
        tied = rng.integers(0, 5, size=(n, 3)).astype(float)
        cont = rng.normal(size=(n, 3))
        X = {
            "tied": tied,
            "continuous": cont,
            "mixed": np.column_stack([tied[:, :2], cont[:, :1]]),
        }[columns]
        y = X[:, 0] * X[:, 1] + rng.normal(size=n)
        rows = rng.random(n) < keep
        rows[rng.integers(n)] = True
        grown = DecisionTreeRegressor(
            max_depth=depth, min_samples_leaf=min_leaf
        )._fit_presorted(X, y, _presort(X), rows)
        fitted = DecisionTreeRegressor(
            max_depth=depth, min_samples_leaf=min_leaf
        ).fit(X[rows], y[rows])
        probe = np.vstack([X, X + 0.5])
        assert grown.predict(probe).tobytes() == fitted.predict(probe).tobytes()
        assert (grown.depth, grown.n_leaves) == (fitted.depth, fitted.n_leaves)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestBoosting:
    def test_improves_with_stages(self):
        rng = RNG(3)
        X = rng.uniform(-2, 2, size=(500, 2))
        y = X[:, 0] ** 2 + np.sin(2 * X[:, 1])
        weak = GradientBoostingRegressor(n_estimators=3).fit(X, y)
        strong = GradientBoostingRegressor(n_estimators=80).fit(X, y)
        assert mse(y, strong.predict(X)) < mse(y, weak.predict(X)) / 3

    def test_early_stopping_reduces_stages(self):
        X, y, _ = linear_data(n=300, noise=2.0)
        m = GradientBoostingRegressor(
            n_estimators=300,
            early_stopping_fraction=0.25,
            early_stopping_rounds=5,
        ).fit(X, y)
        assert m.n_stages < 300

    def test_subsample_still_learns(self):
        X, y, _ = linear_data(n=500)
        m = GradientBoostingRegressor(n_estimators=60, subsample=0.5).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.8

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)


class TestMLP:
    def test_learns_linear_function(self):
        X, y, _ = linear_data(n=600, noise=0.05)
        m = MLPRegressor(hidden=(32,), epochs=80, random_state=1).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.95

    def test_learns_nonlinear_function(self):
        rng = RNG(4)
        X = rng.uniform(-1, 1, size=(800, 1))
        y = np.sin(4 * X[:, 0])
        m = MLPRegressor(hidden=(64, 32), epochs=150, random_state=1).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.8

    def test_deterministic_given_seed(self):
        X, y, _ = linear_data(n=200)
        a = MLPRegressor(epochs=5, random_state=9).fit(X, y).predict(X)
        b = MLPRegressor(epochs=5, random_state=9).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden=())


class TestTobit:
    def test_uncensored_matches_ols(self):
        X, y, w = linear_data(noise=0.2)
        tob = TobitRegressor().fit(X, y)
        assert np.allclose(tob.coef_, w, atol=0.1)

    def test_censoring_corrects_bias(self):
        # right-censor at the mean: naive OLS is biased low, Tobit is not
        rng = RNG(5)
        X = rng.normal(size=(800, 1))
        y_true = 2.0 * X[:, 0] + 5.0 + 0.5 * rng.normal(size=800)
        cap = 5.0
        censored = y_true > cap
        y_obs = np.minimum(y_true, cap)
        ols = LinearRegression().fit(X, y_obs)
        tob = TobitRegressor().fit(X, y_obs, censored=censored)
        assert abs(tob.coef_[0] - 2.0) < abs(ols.coef_[0] - 2.0)
        assert tob.coef_[0] == pytest.approx(2.0, abs=0.2)

    def test_quantile_prediction_above_mean(self):
        X, y, _ = linear_data(noise=0.3)
        tob = TobitRegressor().fit(X, y)
        assert np.all(tob.predict_quantile(X, 0.9) > tob.predict(X))

    def test_quantile_validation(self):
        X, y, _ = linear_data(n=50)
        tob = TobitRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tob.predict_quantile(X, 1.5)

    def test_censored_mask_length_checked(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError):
            TobitRegressor().fit(X, y, censored=np.zeros(3, dtype=bool))

    def test_quantile_bitwise_equals_norm_ppf(self):
        from scipy.stats import norm

        X, y, _ = linear_data(noise=0.3)
        tob = TobitRegressor().fit(X, y)
        for q in (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999):
            expected = tob.predict(X) + tob.sigma_ * norm.ppf(q)
            assert np.array_equal(tob.predict_quantile(X, q), expected), q


class TestTrainingTelemetry:
    """callback=/TrainingLog hooks observe fits without changing them."""

    @staticmethod
    def _censored_problem(n=400, seed=5):
        rng = RNG(seed)
        X = rng.normal(size=(n, 2))
        y_true = 2.0 * X[:, 0] - X[:, 1] + 5.0 + 0.5 * rng.normal(size=n)
        cap = 5.5
        return X, np.minimum(y_true, cap), y_true > cap

    def _check(self, make, fit):
        """Fit with and without a TrainingLog; history must be non-empty and
        monotone-indexed, predictions bit-identical."""
        from repro.obs import TrainingLog

        log = TrainingLog()
        with_log = fit(make(log))
        without = fit(make(None))
        assert len(log) > 0
        assert log.indices == sorted(set(log.indices))
        assert all(np.isfinite(v) for v in log.losses)
        X_probe = RNG(1).normal(size=(50, with_log_dim(with_log)))
        assert np.array_equal(with_log.predict(X_probe), without.predict(X_probe))
        return log

    def test_mlp_per_epoch_loss(self):
        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: MLPRegressor(epochs=12, random_state=2, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(12))
        # on an easy linear problem the loss curve must trend downward
        assert log.losses[-1] < log.losses[0]

    def test_gbm_per_stage_loss(self):
        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: GradientBoostingRegressor(n_estimators=15, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(15))
        assert log.losses[-1] < log.losses[0]
        assert "val_mse" not in log.records[0]

    def test_gbm_early_stopping_reports_val_mse(self):
        from repro.obs import TrainingLog

        X, y, _ = linear_data(n=300, noise=2.0)
        log = TrainingLog()
        m = GradientBoostingRegressor(
            n_estimators=200,
            early_stopping_fraction=0.25,
            early_stopping_rounds=5,
            callback=log,
        ).fit(X, y)
        assert len(log) == m.n_stages
        assert all("val_mse" in r for r in log.records)

    def test_quantile_gbm_per_stage_pinball(self):
        from repro.ml.quantile import QuantileGradientBoosting

        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: QuantileGradientBoosting(n_estimators=10, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(10))
        assert log.losses[-1] < log.losses[0]

    def test_tobit_lbfgs_iteration_trace(self):
        X, y, censored = self._censored_problem()
        log = self._check(
            lambda cb: TobitRegressor(callback=cb),
            lambda m: m.fit(X, y, censored=censored),
        )
        # the trace is the optimizer's own path: negative log-likelihood
        # at each L-BFGS iterate, improving over the warm start
        assert log.losses[-1] <= log.losses[0]

    def test_tobit_coefficients_unchanged_by_callback(self):
        from repro.obs import TrainingLog

        X, y, censored = self._censored_problem()
        a = TobitRegressor(callback=TrainingLog()).fit(X, y, censored=censored)
        b = TobitRegressor().fit(X, y, censored=censored)
        assert np.array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_
        assert a.sigma_ == b.sigma_

    def test_training_log_to_dict(self):
        from repro.obs import TrainingLog

        log = TrainingLog()
        log(0, 1.5, val_mse=2.0)
        assert log.to_dict() == {
            "n": 1,
            "records": [{"index": 0, "loss": 1.5, "val_mse": 2.0}],
        }


def with_log_dim(model) -> int:
    """Feature count a fitted model expects (for building probe inputs)."""
    if isinstance(model, MLPRegressor):
        return len(model._x_scaler.mean_)
    if isinstance(model, TobitRegressor):
        return len(model.coef_)
    return 3  # tree ensembles fitted on linear_data's d=3


class TestMLPValidation:
    def test_epochs_zero_raises(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError, match="epochs=0"):
            MLPRegressor(epochs=0).fit(X, y)

    def test_batch_size_zero_raises(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError, match="batch_size=0"):
            MLPRegressor(batch_size=0).fit(X, y)

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MLPRegressor().fit(np.zeros((0, 3)), np.zeros(0))


class TestPreprocess:
    def test_scaler_zero_mean_unit_var(self):
        X = RNG().normal(5.0, 3.0, size=(500, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_scaler_roundtrip(self):
        X = RNG().normal(size=(100, 3))
        sc = StandardScaler().fit(X)
        assert np.allclose(sc.inverse_transform(sc.transform(X)), X)

    def test_scaler_constant_column(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.all(Z == 0.0)

    def test_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_split_sizes(self):
        a = np.arange(100)
        tr, te = train_test_split(a, test_fraction=0.2, rng=RNG())
        assert len(tr) == 80 and len(te) == 20
        assert sorted(np.concatenate([tr, te])) == list(range(100))

    def test_split_chronological(self):
        a = np.arange(10)
        tr, te = train_test_split(a, test_fraction=0.3, shuffle=False)
        assert list(tr) == list(range(7))
        assert list(te) == [7, 8, 9]

    def test_split_multiple_arrays_aligned(self):
        a = np.arange(50)
        b = a * 2
        a_tr, a_te, b_tr, b_te = train_test_split(a, b, rng=RNG())
        assert np.all(b_tr == 2 * a_tr) and np.all(b_te == 2 * a_te)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(5), np.arange(6))
        with pytest.raises(ValueError):
            train_test_split(np.arange(5), test_fraction=1.5)


class TestMetrics:
    def test_mse_mae(self):
        y = np.array([1.0, 2.0])
        p = np.array([2.0, 0.0])
        assert mse(y, p) == pytest.approx(2.5)
        assert mae(y, p) == pytest.approx(1.5)

    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(3, 2.0)) == 0.0

    def test_prediction_accuracy_symmetric(self):
        y = np.array([100.0])
        assert prediction_accuracy(y, np.array([50.0]))[0] == 0.5
        assert prediction_accuracy(y, np.array([200.0]))[0] == 0.5

    def test_prediction_accuracy_perfect(self):
        y = np.array([42.0])
        assert prediction_accuracy(y, y)[0] == 1.0

    def test_prediction_accuracy_nonpositive_pred(self):
        assert prediction_accuracy(np.array([10.0]), np.array([-5.0]))[0] == 0.0

    def test_underestimation_rate(self):
        y = np.array([10.0, 10.0, 10.0, 10.0])
        p = np.array([5.0, 15.0, 10.0, 9.0])
        assert underestimation_rate(y, p) == 0.5

    @given(
        st.lists(st.floats(1.0, 1e6), min_size=1, max_size=50),
        st.floats(0.5, 2.0),
    )
    @settings(max_examples=30)
    def test_accuracy_bounded(self, values, factor):
        y = np.array(values)
        acc = prediction_accuracy(y, y * factor)
        assert np.all((acc >= 0) & (acc <= 1.0 + 1e-12))


ML_GOLDEN = Path(__file__).parent / "goldens" / "ml_fits.json"


def _ml_fits() -> dict:
    """Fits whose outputs are frozen bit for bit in ``ml_fits.json``.

    Tied integer columns exercise the stable tie order of the split
    search; subsampling plus early stopping exercise the row-subset and
    held-out paths of the boosting fit; the Tobit cases span no, partial
    and total censoring.
    """
    rng = RNG(17)
    n = 300
    X_tied = rng.integers(0, 6, size=(n, 3)).astype(float)
    X_cont = rng.normal(size=(n, 3))
    noise = rng.normal(size=n)
    y_tied = X_tied[:, 0] * X_tied[:, 1] - 2.0 * X_tied[:, 2] + noise
    y_cont = np.sin(2 * X_cont[:, 0]) + X_cont[:, 1] ** 2 + 0.3 * noise
    out: dict = {}
    for name, X, y in (("tied", X_tied, y_tied), ("cont", X_cont, y_cont)):
        gbr = GradientBoostingRegressor(
            n_estimators=150,
            subsample=0.7,
            early_stopping_fraction=0.2,
            early_stopping_rounds=5,
            random_state=3,
        ).fit(X, y)
        out[f"gbr/{name}"] = {
            "n_stages": gbr.n_stages,
            "pred": gbr.predict(X).tolist(),
        }
        qgb = QuantileGradientBoosting(q=0.9, n_estimators=25).fit(X, y)
        out[f"quantile/{name}"] = qgb.predict(X).tolist()
        tree = DecisionTreeRegressor(max_depth=8, min_samples_leaf=1).fit(X, y)
        out[f"tree/{name}"] = tree.predict(X).tolist()
    X, y, _ = linear_data(n=400, noise=0.5, seed=11)
    for pct in (0, 30, 100):
        cap = np.quantile(y, 1.0 - pct / 100.0)
        censored = y >= cap if pct else np.zeros(len(y), dtype=bool)
        tob = TobitRegressor().fit(X, np.minimum(y, cap), censored=censored)
        out[f"tobit/{pct}"] = {
            "coef": tob.coef_.tolist(),
            "intercept": tob.intercept_,
            "sigma": tob.sigma_,
        }
    return out


def test_ml_fits_match_golden():
    """Boosting, quantile boosting, tree and Tobit fits are frozen exactly.

    Regenerate with ``REPRO_UPDATE_GOLDENS=1`` only for an intended
    change to the models' arithmetic (docs/TESTING.md).
    """
    got = json.dumps(_ml_fits(), indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDENS", "") not in ("", "0"):
        ML_GOLDEN.write_text(got)
        pytest.skip(f"regenerated {ML_GOLDEN}")
    assert got == ML_GOLDEN.read_text()
