"""Linear model: ordinary least squares."""

from __future__ import annotations

import numpy as np

from .base import check_X, check_Xy

__all__ = ["LinearRegression"]


class LinearRegression:
    """Ordinary least squares via ``numpy.linalg.lstsq`` (rank-robust)."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        """Solve ``min ||Xw - y||^2``."""
        X, y = check_Xy(X, y)
        if self.fit_intercept:
            A = np.hstack([X, np.ones((len(X), 1))])
        else:
            A = X
        w, *_ = np.linalg.lstsq(A, y, rcond=None)
        if self.fit_intercept:
            self.coef_, self.intercept_ = w[:-1], float(w[-1])
        else:
            self.coef_, self.intercept_ = w, 0.0
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Linear prediction."""
        if self.coef_ is None:
            raise RuntimeError("model not fitted")
        X = check_X(X, len(self.coef_))
        return X @ self.coef_ + self.intercept_
