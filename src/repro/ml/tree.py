"""CART regression tree with presorted, feature-vectorized split search.

Each feature column is argsorted once per fit (stable, so ties keep row
order), the way XGBoost's exact greedy split finder keeps presorted
column blocks.  A node holds its rows' per-feature sorted indices as a
``(d, n)`` array, and next to it the feature values in that order; a
split hands each child its share of both through one stable boolean
partition, so no node sorts or gathers feature values.  The split search
scores every candidate threshold of every feature in one 2-D pass
(prefix sums along axis 1, then a per-feature argmin), following the
HPC-Python guidance of no per-element Python loops in hot paths.

A stable sort restricted to a subset of rows is the stable sort of that
subset, so a node's sorted indices and values -- and every prefix sum,
threshold and tree built from them -- are exactly what sorting the
node's rows afresh would give.  Growing on all of ``X``'s rows also
writes each leaf's value into those rows as it goes: the same rows
:meth:`DecisionTreeRegressor.predict` routes to the leaf, by the same
comparisons, so boosting reads its stage predictions on the training
matrix from there (docs/PERFORMANCE.md, "Fig 12's models").
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


def _partition(
    order: np.ndarray, xs: np.ndarray, keep: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` entries per feature of presorted ``order`` and of its
    sorted values ``xs`` where the ``(d, m)`` mask ``keep`` holds, each
    feature's in sorted order (a stable partition)."""
    d = len(order)
    return order[keep].reshape(d, n), xs[keep].reshape(d, n)


def _best_split(
    y: np.ndarray,
    y_node: np.ndarray,
    total_sum: np.float64,
    order: np.ndarray,
    xs: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Return ``(feature, threshold, sse_gain)`` of the best split, or None.

    ``y`` holds the fit's targets and ``y_node`` the node's, in row order,
    which sum to ``total_sum``; ``order`` holds the node's per-feature
    sorted row indices and ``xs`` the feature values in that order.
    Candidate splits between
    consecutive distinct values of every feature are scored at once by
    the SSE reduction computed from prefix sums; the feature kept is the
    first one with the largest gain.
    """
    n = len(y_node)
    total_sq = float(y_node @ y_node)
    base_sse = total_sq - total_sum**2 / n
    # split after position i (1-based left size): valid i in [min_leaf, n-min_leaf]
    i = np.arange(min_leaf, n - min_leaf + 1)
    if len(i) == 0:
        return None
    last_left = slice(min_leaf - 1, n - min_leaf)
    first_right = slice(min_leaf, n - min_leaf + 1)
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
        fitted: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Grow on checked ``X, y`` given their presort ``order``.

        ``rows``, a boolean mask, restricts the fit to a subset of rows:
        the tree is the one ``fit(X[rows], y[rows])`` grows.  Boosting
        presorts once per fit and grows every stage's tree through here.
        ``fitted``, an array of ``len(y)``, receives each leaf's value in
        the leaf's training rows: without ``rows`` it ends as
        ``predict(X)``.
        """
        self._n_features = X.shape[1]
        XT = np.ascontiguousarray(X.T)
        xs = np.take_along_axis(XT, order, axis=1)
        if rows is None:
            index = np.arange(len(y))
        else:
            index = np.flatnonzero(rows)
            order, xs = _partition(order, xs, rows[order], len(index))
        self._root = self._grow(XT, y, index, order, xs, fitted, depth=0)
        return self

    def _splits(self, n: int, depth: int) -> bool:
        """Whether a node of ``n`` rows at ``depth`` may split."""
        return depth < self.max_depth and n >= 2 * self.min_samples_leaf

    def _grow(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        index: np.ndarray,
        order: np.ndarray | None,
        xs: np.ndarray | None,
        fitted: np.ndarray | None,
        depth: int,
    ) -> _Node:
        """Grow the subtree of the rows ``index``; ``order`` and ``xs`` are
        None where :meth:`_splits` already makes the node a leaf."""
        y_node = y[index]
        total = y_node.sum()
        # ``y_node.mean()`` is this sum divided by the count
        node = _Node(value=float(total / len(y_node)))
        split = None
        if self._splits(len(y_node), depth):
            split = _best_split(y, y_node, total, order, xs, self.min_samples_leaf)
        if split is None or split[2] <= self.min_gain:
            if fitted is not None:
                fitted[index] = node.value
            return node
        f, thr, _gain = split
        node.feature, node.threshold = f, thr
        mask = XT[f, index] <= thr
        left, right = index[mask], index[~mask]
        # only a child that may split needs its share of the presort
        grow_left = self._splits(len(left), depth + 1)
        grow_right = self._splits(len(right), depth + 1)
        sorted_left = sorted_right = (None, None)
        if grow_left or grow_right:
            goes_left = XT[f, order] <= thr
            if grow_left:
                sorted_left = _partition(order, xs, goes_left, len(left))
            if grow_right:
                sorted_right = _partition(order, xs, ~goes_left, len(right))
        node.left = self._grow(XT, y, left, *sorted_left, fitted, depth + 1)
        node.right = self._grow(XT, y, right, *sorted_right, fitted, depth + 1)
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
