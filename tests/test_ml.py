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
    StandardScaler,
    TobitRegressor,
    prediction_accuracy,
    underestimation_rate,
)
from repro.ml.tree import _presort

RNG = lambda s=0: np.random.default_rng(s)


def mse(y, pred):
    return float(np.mean((y - pred) ** 2))


def r2_score(y, pred):
    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 8),
        min_leaf=st.integers(1, 8),
        columns=st.sampled_from(["tied", "continuous"]),
    )
    def test_leaf_filled_fit_is_predict(self, seed, depth, min_leaf, columns):
        """Growing on all rows writes each leaf's value into its training
        rows; the result is ``predict`` on the training matrix, bitwise."""
        rng = RNG(seed)
        n = 150
        X = (
            rng.integers(0, 5, size=(n, 3)).astype(float)
            if columns == "tied"
            else rng.normal(size=(n, 3))
        )
        y = X[:, 0] * X[:, 1] + rng.normal(size=n)
        fitted = np.full(n, np.nan)
        tree = DecisionTreeRegressor(
            max_depth=depth, min_samples_leaf=min_leaf
        )._fit_presorted(X, y, _presort(X), fitted=fitted)
        assert fitted.tobytes() == tree.predict(X).tobytes()

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

    def test_layers_are_views_of_one_buffer(self):
        """Weights and biases live in one flat buffer, and ``predict`` reads
        them exactly as it would read separate arrays."""
        X, y, _ = linear_data(n=300)
        m = MLPRegressor(hidden=(32, 16), epochs=3, random_state=0).fit(X, y)
        layers = m._weights + m._biases
        assert all(np.shares_memory(p, m._params) for p in layers)
        assert sum(p.size for p in layers) == m._params.size
        pred = m.predict(X)
        copy = MLPRegressor(hidden=(32, 16))
        copy.__dict__.update(m.__dict__)
        copy._weights = [W.copy() for W in m._weights]
        copy._biases = [b.copy() for b in m._biases]
        assert copy.predict(X).tobytes() == pred.tobytes()
        assert m.predict(X).tobytes() == pred.tobytes()


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

    @pytest.mark.parametrize("pct", [0, 30, 100])
    @pytest.mark.parametrize(
        "point",
        [
            # zero coordinates step by +1e-8 (scipy's sign of 0 is +1)
            [0.0, 0.0, 0.0, 0.0, 0.0],
            # a log sigma beyond the +-20 clip, on both sides
            [2.0, -1.0, 0.5, 3.0, 25.0],
            [2.0, -1.0, 0.5, 3.0, -21.5],
            # |x| > 2**27: x + 1e-8 == x, so scipy takes its relative step
            [2.0, -3.0e8, 0.5, 4.0e9, 0.1],
        ],
    )
    def test_gradient_is_scipys_forward_difference(self, pct, point):
        """The in-module gradient is ``approx_fprime(x, f, 1e-8)`` bit for
        bit, with ``f`` the likelihood written out one evaluation at a
        time: the gradient L-BFGS-B computes when it is given none."""
        from scipy.optimize import approx_fprime
        from scipy.special import log_ndtr

        from repro.ml.tobit import _NegLogLikelihood

        X, y, _ = linear_data(n=400, noise=0.5, seed=11)
        cap = np.quantile(y, 1.0 - pct / 100.0)
        censored = y >= cap if pct else np.zeros(len(y), dtype=bool)
        y = np.minimum(y, cap)
        A = np.hstack([X, np.ones((len(y), 1))])

        log_sqrt_2pi = np.log(np.sqrt(2 * np.pi))

        def f(params):
            log_s = np.clip(params[-1], -20.0, 20.0)
            s = np.exp(log_s)
            mu = A @ params[:-1]
            ll = 0.0
            if (~censored).any():
                z = (y[~censored] - mu[~censored]) / s
                ll += float(np.sum((-(z**2) / 2.0 - log_sqrt_2pi) - log_s))
            if censored.any():
                ll += float(np.sum(log_ndtr((mu[censored] - y[censored]) / s)))
            return -ll

        neg_ll = _NegLogLikelihood(A, y, censored)
        x = np.array(point)
        value, grad = neg_ll(x)
        assert value == f(x)
        assert grad.tobytes() == approx_fprime(x, f, 1e-8).tobytes()
        if abs(x).max() > 2.0**27:
            assert ((x + 1e-8) - x == 0).any()



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

    def test_scaler_constant_column(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.all(Z == 0.0)

    def test_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))


class TestMetrics:
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
    and total censoring; the MLP cases are Fig 12's network on both
    feature kinds.
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
        # the configuration Fig 12 fits
        mlp = MLPRegressor(hidden=(32, 16), epochs=30, random_state=0).fit(X, y)
        out[f"mlp/{name}"] = mlp.predict(X).tolist()
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
    """Boosting, quantile boosting, tree, MLP and Tobit fits are frozen
    exactly.

    Regenerate with ``REPRO_UPDATE_GOLDENS=1`` only for an intended
    change to the models' arithmetic (docs/TESTING.md).
    """
    got = json.dumps(_ml_fits(), indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDENS", "") not in ("", "0"):
        ML_GOLDEN.write_text(got)
        pytest.skip(f"regenerated {ML_GOLDEN}")
    assert got == ML_GOLDEN.read_text()


#: (L-BFGS iterations, gradient evaluations) of the golden Tobit fits
TOBIT_GOLDEN_STEPS = {0: (1, 4), 30: (9, 10), 100: (1, 9)}


def test_tobit_golden_fits_keep_their_steps(monkeypatch):
    """The golden Tobit fits take the same optimizer path: the same number
    of L-BFGS iterations and of gradient evaluations.

    Each gradient evaluation is d + 1 likelihood evaluations at the
    d-parameter point (the point and one forward step per coordinate), so
    the fits stay far below L-BFGS-B's default ``maxfun`` of 15,000 however
    scipy counts them.
    """
    import scipy.optimize

    results = []
    minimize = scipy.optimize.minimize

    def recording_minimize(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    X, y, _ = linear_data(n=400, noise=0.5, seed=11)
    for pct, steps in TOBIT_GOLDEN_STEPS.items():
        cap = np.quantile(y, 1.0 - pct / 100.0)
        censored = y >= cap if pct else np.zeros(len(y), dtype=bool)
        TobitRegressor().fit(X, np.minimum(y, cap), censored=censored)
        result = results[-1]
        assert (result.nit, result.njev) == steps
        assert result.njev * (len(result.x) + 1) < 15_000 // 100
