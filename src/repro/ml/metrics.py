"""The paper's two Fig 12 regression metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["prediction_accuracy", "underestimation_rate"]


def _pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return y_true, y_pred


def prediction_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-job accuracy ``min(rt, pred)/max(rt, pred)`` (paper §VI-A).

    1.0 is a perfect prediction; symmetric in over/under-estimation.
    Non-positive predictions score 0.
    """
    y_true, y_pred = _pair(y_true, y_pred)
    y_pred = np.maximum(y_pred, 0.0)
    num = np.minimum(y_true, y_pred)
    den = np.maximum(y_true, y_pred)
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(den > 0, num / den, 0.0)
    return acc


def underestimation_rate(
    y_true: np.ndarray, y_pred: np.ndarray, tolerance: float = 0.0
) -> float:
    """Fraction of jobs whose runtime was under-predicted (paper §VI-A).

    Underestimation is the costly direction: schedulers backfill on the
    estimate and kill jobs that outlive it.
    """
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.mean(y_pred < y_true - tolerance))
