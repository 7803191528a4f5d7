"""Feature scaling."""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Zero-mean / unit-variance feature scaling (constant columns pass through)."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Learn per-column mean and standard deviation."""
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned scaling."""
        if self.mean_ is None:
            raise RuntimeError("scaler not fitted")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(X).transform(X)
