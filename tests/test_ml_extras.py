"""Tests for the extra ML modules: kNN, quantile boosting, validation."""

import numpy as np
import pytest

from repro.ml import (
    KNeighborsRegressor,
    LinearRegression,
    QuantileGradientBoosting,
    cross_val_score,
    kfold_indices,
    pinball_loss,
    walk_forward_score,
)

RNG = lambda s=0: np.random.default_rng(s)


class TestKNN:
    def test_exact_on_training_points_k1(self):
        X = np.arange(10.0)[:, None]
        y = X[:, 0] ** 2
        m = KNeighborsRegressor(k=1).fit(X, y)
        assert np.allclose(m.predict(X), y)

    def test_smooths_with_larger_k(self):
        rng = RNG(1)
        X = rng.uniform(-1, 1, size=(300, 1))
        y = X[:, 0] + 0.5 * rng.normal(size=300)
        rough = KNeighborsRegressor(k=1).fit(X, y).predict(X)
        smooth = KNeighborsRegressor(k=50).fit(X, y).predict(X)
        assert smooth.std() < rough.std()

    def test_quantile_mode_above_mean(self):
        rng = RNG(2)
        X = np.zeros((500, 1))
        y = rng.exponential(1.0, 500)
        mean_pred = KNeighborsRegressor(k=500).fit(X, y).predict(X[:1])
        q_pred = KNeighborsRegressor(k=500, quantile=0.9).fit(X, y).predict(X[:1])
        assert q_pred[0] > mean_pred[0]

    def test_k_larger_than_train_clamped(self):
        X = np.arange(3.0)[:, None]
        m = KNeighborsRegressor(k=10).fit(X, np.array([1.0, 2.0, 3.0]))
        assert m.predict(X)[0] == pytest.approx(2.0)

    def test_chunking_consistency(self):
        rng = RNG(3)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        big = KNeighborsRegressor(k=5, chunk=1000).fit(X, y).predict(X)
        small = KNeighborsRegressor(k=5, chunk=7).fit(X, y).predict(X)
        assert np.allclose(big, small)

    def test_validation(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(k=0)
        with pytest.raises(ValueError):
            KNeighborsRegressor(quantile=1.5)
        with pytest.raises(RuntimeError):
            KNeighborsRegressor().predict(np.zeros((1, 1)))


class TestQuantileBoosting:
    def test_coverage_near_target(self):
        rng = RNG(4)
        X = rng.uniform(-1, 1, size=(1500, 1))
        y = X[:, 0] + rng.normal(0, 0.5, 1500)
        for q in (0.5, 0.9):
            m = QuantileGradientBoosting(q=q, n_estimators=60).fit(X, y)
            coverage = float(np.mean(y <= m.predict(X)))
            assert coverage == pytest.approx(q, abs=0.10)

    def test_higher_quantile_higher_predictions(self):
        rng = RNG(5)
        X = rng.normal(size=(500, 2))
        y = rng.exponential(2.0, 500)
        p50 = QuantileGradientBoosting(q=0.5, n_estimators=40).fit(X, y).predict(X)
        p90 = QuantileGradientBoosting(q=0.9, n_estimators=40).fit(X, y).predict(X)
        assert p90.mean() > p50.mean()

    def test_pinball_loss_asymmetry(self):
        y = np.array([10.0])
        over = pinball_loss(y, np.array([12.0]), q=0.9)
        under = pinball_loss(y, np.array([8.0]), q=0.9)
        assert under > over  # q=0.9 punishes underestimates 9x harder

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QuantileGradientBoosting(q=0.0)

    @pytest.mark.parametrize("n_estimators", [0, -1])
    def test_invalid_n_estimators(self, n_estimators):
        # zero stages used to fit silently and then fail in predict
        with pytest.raises(ValueError, match="n_estimators"):
            QuantileGradientBoosting(n_estimators=n_estimators)

    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, 1.5])
    def test_invalid_learning_rate(self, learning_rate):
        # a zero rate used to give a constant model without complaint
        with pytest.raises(ValueError, match="learning_rate"):
            QuantileGradientBoosting(learning_rate=learning_rate)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            QuantileGradientBoosting().predict(np.zeros((1, 1)))


class TestValidation:
    def test_kfold_partition(self):
        folds = kfold_indices(20, k=4, rng=RNG())
        assert len(folds) == 4
        all_test = np.sort(np.concatenate([t for _, t in folds]))
        assert np.array_equal(all_test, np.arange(20))
        for train, test in folds:
            assert len(np.intersect1d(train, test)) == 0

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(5, k=1)
        with pytest.raises(ValueError):
            kfold_indices(3, k=10)

    def test_cross_val_scores_reasonable(self):
        rng = RNG(6)
        X = rng.normal(size=(200, 2))
        y = X @ np.array([1.0, -1.0]) + 0.1 * rng.normal(size=200)
        scores = cross_val_score(LinearRegression, X, y, k=4, rng=RNG(0))
        assert len(scores) == 4
        assert np.all(scores < 0.05)

    def test_walk_forward_chronological(self):
        # target drifts over time: early-trained folds must err more on
        # later data than a model would in-sample
        n = 400
        X = np.arange(n, dtype=float)[:, None]
        y = 0.01 * np.arange(n) ** 1.2
        scores = walk_forward_score(LinearRegression, X, y, n_folds=3)
        assert len(scores) == 3
        assert np.all(scores >= 0)

    def test_walk_forward_too_small(self):
        with pytest.raises(ValueError):
            walk_forward_score(LinearRegression, np.zeros((5, 1)), np.zeros(5), n_folds=10)
