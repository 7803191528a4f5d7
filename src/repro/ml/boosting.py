"""Gradient-boosted regression trees (the paper's "XGBoost" comparator).

Standard least-squares gradient boosting: each stage fits a shallow CART
tree to the current residuals and is added with a shrinkage factor.  With
squared loss this is exactly classic GBM; it plays the role XGBoost plays in
the paper's Fig 12 at laptop scale.  Supports optional row subsampling
(stochastic gradient boosting) and early stopping on a validation fraction.
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_Xy
from .tree import DecisionTreeRegressor, _presort

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting over CART trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        early_stopping_fraction: float = 0.0,
        early_stopping_rounds: int = 10,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.early_stopping_fraction = early_stopping_fraction
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = random_state
        self.init_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit stage-wise on residuals."""
        X, y = check_Xy(X, y)
        rng = np.random.default_rng(self.random_state)

        X_val = y_val = None
        if self.early_stopping_fraction > 0.0 and len(y) >= 20:
            n_val = max(1, int(len(y) * self.early_stopping_fraction))
            perm = rng.permutation(len(y))
            val_idx, tr_idx = perm[:n_val], perm[n_val:]
            X_val, y_val = X[val_idx], y[val_idx]
            X, y = X[tr_idx], y[tr_idx]

        # every stage's tree reuses one presort of the training rows
        order = _presort(X)
        self.init_ = float(y.mean())
        self.trees_ = []
        pred = np.full(len(y), self.init_)
        val_pred = (
            np.full(len(y_val), self.init_) if y_val is not None else None
        )
        best_val = np.inf
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            residual = y - pred
            rows = None
            if self.subsample < 1.0:
                rows = rng.random(len(y)) < self.subsample
                if rows.sum() < 2 * self.min_samples_leaf:
                    rows = None
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            if rows is None:
                # the tree's leaves fill in its predictions on X as it grows
                stage = np.empty(len(y))
                tree._fit_presorted(X, residual, order, fitted=stage)
            else:
                stage = tree._fit_presorted(X, residual, order, rows).predict(X)
            self.trees_.append(tree)
            pred = pred + self.learning_rate * stage

            if val_pred is not None:
                val_pred = val_pred + self.learning_rate * tree.predict(X_val)
                val_mse = float(np.mean((y_val - val_pred) ** 2))
                if val_mse < best_val - 1e-12:
                    best_val = val_mse
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sum of shrunken stage predictions."""
        if not self.trees_:
            raise RuntimeError("model not fitted")
        X = check_X(X)
        out = np.full(len(X), self.init_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out

    @property
    def n_stages(self) -> int:
        """Number of fitted stages (< n_estimators if early-stopped)."""
        return len(self.trees_)
