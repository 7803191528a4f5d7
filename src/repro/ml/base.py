"""Input checks shared by the from-scratch regressors.

All models implement ``fit(X, y) -> self`` and ``predict(X) -> y_hat`` with
plain NumPy arrays, mirroring the scikit-learn convention so the prediction
harness can treat the paper's five model families uniformly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_Xy", "check_X"]


def check_Xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a training pair to 2-D float X, 1-D float y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(y) == 0:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    return X, y


def check_X(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    """Validate and coerce prediction input."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"expected {n_features} features, got {X.shape[1]}"
        )
    return X
