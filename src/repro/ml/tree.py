"""CART regression tree with presorted, feature-vectorized split search.

Each feature column is argsorted once per fit (stable, so ties keep row
order), the way XGBoost's exact greedy split finder keeps presorted
column blocks.  A node holds its rows' per-feature sorted indices as a
``(d, n)`` array; a split hands each child its share through a stable
boolean partition of that array, so no node sorts anything.  The split
search scores every candidate threshold of every feature in one 2-D pass
(prefix sums along axis 1, then a per-feature argmin), following the
HPC-Python guidance of no per-element Python loops in hot paths.

A stable sort restricted to a subset of rows is the stable sort of that
subset, so a node's sorted indices -- and every prefix sum, threshold
and tree built from them -- are exactly what sorting the node's rows
afresh would give (docs/PERFORMANCE.md, "Fig 12's models").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import check_X, check_Xy

__all__ = ["DecisionTreeRegressor"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _presort(X: np.ndarray) -> np.ndarray:
    """Stable per-feature argsort of ``X`` as a ``(d, n)`` index array."""
    return np.argsort(X.T, axis=1, kind="stable")


def _partition(order: np.ndarray, keep: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` entries per feature of presorted ``order`` where the
    ``(d, m)`` mask ``keep`` holds, each feature's in sorted order (a
    stable partition)."""
    return order[keep].reshape(len(order), n)


def _best_split(
    XT: np.ndarray,
    y: np.ndarray,
    y_node: np.ndarray,
    order: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Return ``(feature, threshold, sse_gain)`` of the best split, or None.

    ``XT`` is the fit's feature-major matrix and ``y`` its targets;
    ``y_node`` holds the node's targets in row order and ``order`` its
    rows' per-feature sorted indices.  Candidate splits between
    consecutive distinct values of every feature are scored at once by
    the SSE reduction computed from prefix sums; the feature kept is the
    first one with the largest gain.
    """
    n = len(y_node)
    total_sum = y_node.sum()
    total_sq = float(y_node @ y_node)
    base_sse = total_sq - total_sum**2 / n
    # split after position i (1-based left size): valid i in [min_leaf, n-min_leaf]
    i = np.arange(min_leaf, n - min_leaf + 1)
    if len(i) == 0:
        return None
    last_left = slice(min_leaf - 1, n - min_leaf)
    first_right = slice(min_leaf, n - min_leaf + 1)
    xs = np.take_along_axis(XT, order, axis=1)
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    left_n = i
    left_sum = csum[:, last_left]
    left_sq = csq[:, last_left]
    right_n = n - i
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    sse = (
        left_sq
        - left_sum**2 / left_n
        + right_sq
        - right_sum**2 / right_n
    )
    # a split is only real where the x value changes across the boundary
    sse = np.where(xs[:, last_left] < xs[:, first_right], sse, np.inf)
    k = np.argmin(sse, axis=1)
    best_sse = sse[np.arange(len(k)), k]
    candidates = np.flatnonzero(np.isfinite(best_sse))
    if len(candidates) == 0:
        return None
    gains = base_sse - best_sse[candidates]
    j = int(np.argmax(gains))
    f = int(candidates[j])
    at = min_leaf + int(k[f])
    thr = (xs[f, at - 1] + xs[f, at]) / 2.0
    return f, float(thr), float(gains[j])


class DecisionTreeRegressor:
    """Binary regression tree minimizing squared error."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self._root: _Node | None = None
        self._n_features = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree greedily."""
        X, y = check_Xy(X, y)
        return self._fit_presorted(X, y, _presort(X))

    def _fit_presorted(
        self,
        X: np.ndarray,
        y: np.ndarray,
        order: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Grow on checked ``X, y`` given their presort ``order``.

        ``rows``, a boolean mask, restricts the fit to a subset of rows:
        the tree is the one ``fit(X[rows], y[rows])`` grows.  Boosting
        presorts once per fit and grows every stage's tree through here.
        """
        self._n_features = X.shape[1]
        if rows is None:
            index = np.arange(len(y))
        else:
            index = np.flatnonzero(rows)
            order = _partition(order, rows[order], len(index))
        self._root = self._grow(
            np.ascontiguousarray(X.T), y, index, order, depth=0
        )
        return self

    def _grow(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        index: np.ndarray,
        order: np.ndarray,
        depth: int,
    ) -> _Node:
        y_node = y[index]
        node = _Node(value=float(y_node.mean()))
        if depth >= self.max_depth or len(y_node) < 2 * self.min_samples_leaf:
            return node
        split = _best_split(XT, y, y_node, order, self.min_samples_leaf)
        if split is None or split[2] <= self.min_gain:
            return node
        f, thr, _gain = split
        mask = XT[f, index] <= thr
        left, right = index[mask], index[~mask]
        goes_left = XT[f, order] <= thr
        node.feature, node.threshold = f, thr
        node.left = self._grow(
            XT, y, left, _partition(order, goes_left, len(left)), depth + 1
        )
        node.right = self._grow(
            XT, y, right, _partition(order, ~goes_left, len(right)), depth + 1
        )
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows down the tree (level-order, vectorized per node)."""
        if self._root is None:
            raise RuntimeError("model not fitted")
        X = check_X(X, self._n_features)
        out = np.empty(len(X))
        # iterative stack of (node, row indices) keeps recursion shallow
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    @property
    def depth(self) -> int:
        """Realized tree depth."""

        def d(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self._root)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""

        def count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self._root)
