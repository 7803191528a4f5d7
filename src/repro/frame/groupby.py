"""Vectorized hash group-by for :class:`repro.frame.Frame`.

Grouping is implemented with ``np.unique`` over a composite key, then
aggregations run over contiguous sorted segments with ``np.add.reduceat``-style
segment reductions — no Python-level per-group loops for the built-in
aggregations.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from .frame import Frame

__all__ = ["GroupBy"]

_SEGMENT_AGGS = {"sum", "mean", "min", "max", "count", "median", "std", "first", "last"}


def _composite_codes(frame: Frame, keys: Sequence[str]) -> tuple[np.ndarray, Frame]:
    """Return (group_code per row, frame of unique key combinations)."""
    if len(keys) == 1:
        uniq, codes = np.unique(frame[keys[0]], return_inverse=True)
        return codes, Frame({keys[0]: uniq})
    per_key_codes = []
    per_key_uniqs = []
    for k in keys:
        uniq, codes = np.unique(frame[k], return_inverse=True)
        per_key_codes.append(codes)
        per_key_uniqs.append(uniq)
    stacked = np.stack(per_key_codes, axis=1)
    uniq_rows, group_codes = np.unique(stacked, axis=0, return_inverse=True)
    key_frame = Frame(
        {k: per_key_uniqs[i][uniq_rows[:, i]] for i, k in enumerate(keys)}
    )
    return group_codes, key_frame


class GroupBy:
    """Deferred group-by over a Frame; call :meth:`agg` or iterate groups."""

    def __init__(self, frame: Frame, keys: list[str]) -> None:
        self._frame = frame
        self._keys = keys
        self._codes, self._key_frame = _composite_codes(frame, keys)
        self._n_groups = self._key_frame.num_rows
        # Sort rows by group code once; segment boundaries partition them.
        self._order = np.argsort(self._codes, kind="stable")
        sorted_codes = self._codes[self._order]
        self._starts = np.searchsorted(sorted_codes, np.arange(self._n_groups))
        self._ends = np.append(self._starts[1:], len(sorted_codes))

    def keys(self) -> Frame:
        """Frame of unique key combinations, one row per group."""
        return self._key_frame

    def sizes(self) -> np.ndarray:
        """Group sizes aligned with :meth:`keys`."""
        return self._ends - self._starts

    # ------------------------------------------------------------------
    def agg(self, **specs: tuple[str, str] | Callable[[np.ndarray], Any]) -> Frame:
        """Aggregate columns per group.

        Each keyword is an output column name mapped to either
        ``(input_column, agg_name)`` with ``agg_name`` in
        ``{"sum","mean","min","max","count","median","std","first","last"}``
        or a callable applied per group (slow path).

        Returns a Frame with the key columns plus one column per spec.
        """
        out = self._key_frame.to_dict()
        for out_name, spec in specs.items():
            if isinstance(spec, tuple):
                col_name, agg = spec
                values = self._frame[col_name][self._order]
                out[out_name] = self._segment_agg(values, agg)
            elif callable(spec):
                raise TypeError(
                    "callable aggregation requires (column, fn); use apply()"
                )
            else:
                raise TypeError(f"bad aggregation spec for {out_name!r}: {spec!r}")
        return Frame(out)

    def apply(self, column: str, fn: Callable[[np.ndarray], Any]) -> Frame:
        """Apply ``fn`` to each group's values of ``column`` (Python loop)."""
        values = self._frame[column][self._order]
        results = [
            fn(values[s:e]) for s, e in zip(self._starts, self._ends)
        ]
        out = self._key_frame.to_dict()
        out[column] = np.asarray(results)
        return Frame(out)

    def groups(self):
        """Yield ``(key_row_dict, sub_frame)`` per group (slow path)."""
        for g in range(self._n_groups):
            idx = self._order[self._starts[g] : self._ends[g]]
            yield self._key_frame.row(g), self._frame.take(idx)

    # ------------------------------------------------------------------
    def _segment_agg(self, sorted_values: np.ndarray, agg: str) -> np.ndarray:
        starts, ends = self._starts, self._ends
        if agg == "count":
            return ends - starts
        if agg == "sum":
            return np.add.reduceat(sorted_values, starts)
        if agg == "mean":
            sums = np.add.reduceat(sorted_values.astype(float), starts)
            return sums / (ends - starts)
        if agg == "min":
            return np.minimum.reduceat(sorted_values, starts)
        if agg == "max":
            return np.maximum.reduceat(sorted_values, starts)
        if agg == "first":
            return sorted_values[starts]
        if agg == "last":
            return sorted_values[ends - 1]
        if agg == "median":
            return np.asarray(
                [np.median(sorted_values[s:e]) for s, e in zip(starts, ends)]
            )
        if agg == "std":
            sums = np.add.reduceat(sorted_values.astype(float), starts)
            sq = np.add.reduceat(sorted_values.astype(float) ** 2, starts)
            n = ends - starts
            var = np.maximum(sq / n - (sums / n) ** 2, 0.0)
            return np.sqrt(var)
        raise ValueError(
            f"unknown aggregation {agg!r}; expected one of {sorted(_SEGMENT_AGGS)}"
        )
