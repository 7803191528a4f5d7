"""Multilayer perceptron regressor trained with Adam.

A compact fully-connected network (ReLU hidden layers, linear output,
squared loss) with mini-batch Adam — the paper's MLP comparator [16] for
Fig 12.  Inputs/targets are standardized internally so callers can pass raw
features.

Every weight matrix and bias vector is a view into one flat float64
parameter buffer, and backprop writes each gradient into the matching
view of a second buffer, so one Adam step is a dozen elementwise
operations over the whole buffer rather than per tensor.  Each operation
is elementwise, or the same matmul or row sum as on separate tensors, so
the trained network is the same bit for bit (docs/PERFORMANCE.md, "Fig
12's models").
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_Xy
from .preprocess import StandardScaler

__all__ = ["MLPRegressor"]


def _layer_views(
    buffer: np.ndarray, sizes: list[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's weight matrix and bias vector of a network with layer
    widths ``sizes``, as views into the flat ``buffer``: layer by layer,
    weights before biases."""
    weights, biases = [], []
    at = 0
    for a, b in zip(sizes, sizes[1:]):
        weights.append(buffer[at : at + a * b].reshape(a, b))
        biases.append(buffer[at + a * b : at + a * b + b])
        at += a * b + b
    return weights, biases


class MLPRegressor:
    """ReLU MLP with mini-batch Adam and internal standardization."""

    def __init__(
        self,
        hidden: tuple[int, ...] = (32, 16),
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        l2: float = 1e-5,
        random_state: int = 0,
    ) -> None:
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.hidden = tuple(int(h) for h in hidden)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.l2 = l2
        self.random_state = random_state
        self._params = np.empty(0)
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self._x_scaler = StandardScaler()
        self._y_mean = 0.0
        self._y_scale = 1.0

    # ------------------------------------------------------------------
    def _init_params(self, sizes: list[int], rng: np.random.Generator) -> None:
        self._params = np.zeros(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
        self._weights, self._biases = _layer_views(self._params, sizes)
        for W, a in zip(self._weights, sizes):
            # He initialization for ReLU layers
            W[...] = rng.normal(0.0, np.sqrt(2.0 / a), size=W.shape)

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [X]
        h = X
        for W, b in zip(self._weights[:-1], self._biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            acts.append(h)
        out = h @ self._weights[-1] + self._biases[-1]
        return out[:, 0], acts

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        """Train with mini-batch Adam on standardized data."""
        X, y = check_Xy(X, y)
        if self.epochs < 1:
            raise ValueError(
                f"cannot train an MLP for epochs={self.epochs!r}; need >= 1"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"cannot train an MLP with batch_size={self.batch_size!r}; need >= 1"
            )
        rng = np.random.default_rng(self.random_state)
        Xs = self._x_scaler.fit_transform(X)
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_scale

        n = len(ys)
        sizes = [Xs.shape[1], *self.hidden, 1]
        self._init_params(sizes, rng)
        params = self._params
        grads = np.empty_like(params)
        grads_w, grads_b = _layer_views(grads, sizes)
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = 0

        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for s in range(0, n, batch):
                idx = order[s : s + batch]
                xb, yb = Xs[idx], ys[idx]
                pred, acts = self._forward(xb)
                # backprop of squared loss
                delta = (2.0 / len(idx)) * (pred - yb)[:, None]
                for layer in range(len(self._weights) - 1, -1, -1):
                    grads_w[layer][...] = (
                        acts[layer].T @ delta + self.l2 * self._weights[layer]
                    )
                    grads_b[layer][...] = delta.sum(axis=0)
                    if layer > 0:
                        delta = delta @ self._weights[layer].T
                        delta = delta * (acts[layer] > 0)
                t += 1
                corr1 = 1 - beta1**t
                corr2 = 1 - beta2**t
                m *= beta1
                m += (1 - beta1) * grads
                v *= beta2
                v += (1 - beta2) * grads**2
                params -= (
                    self.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)
                )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forward pass, de-standardized."""
        if not self._weights:
            raise RuntimeError("model not fitted")
        X = check_X(X, len(self._x_scaler.mean_))
        pred, _ = self._forward(self._x_scaler.transform(X))
        return pred * self._y_scale + self._y_mean
