"""Quantile gradient boosting (pinball loss).

Predicting an *upper quantile* of runtime instead of the mean is the
principled way to push the underestimation rate down (Fan et al.'s
trade-off, the paper's reference [11]).  This regressor boosts CART trees
on the pinball-loss gradient; each stage fits the sign pattern of the
residuals and leaf values are set by the tree's squared-error fit to the
subgradient (standard gradient boosting treatment of non-smooth losses).
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_Xy
from .tree import DecisionTreeRegressor, _presort

__all__ = ["QuantileGradientBoosting"]


class QuantileGradientBoosting:
    """Gradient boosting minimizing the pinball loss at quantile ``q``."""

    def __init__(
        self,
        q: float = 0.9,
        n_estimators: int = 80,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
    ) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.q = q
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.init_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantileGradientBoosting":
        """Boost on the pinball subgradient."""
        X, y = check_Xy(X, y)
        # every stage's tree reuses one presort of X
        order = _presort(X)
        self.init_ = float(np.quantile(y, self.q))
        self.trees_ = []
        pred = np.full(len(y), self.init_)
        for _ in range(self.n_estimators):
            # negative subgradient of pinball loss w.r.t. prediction
            residual_sign = np.where(y > pred, self.q, self.q - 1.0)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            # the tree's leaves fill in its predictions on X as it grows
            stage = np.empty(len(y))
            tree._fit_presorted(X, residual_sign, order, fitted=stage)
            self.trees_.append(tree)
            pred = pred + self.learning_rate * stage
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Quantile prediction."""
        if not self.trees_:
            raise RuntimeError("model not fitted")
        X = check_X(X)
        out = np.full(len(X), self.init_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out
