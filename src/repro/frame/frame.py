"""Columnar data frame backed by NumPy arrays.

``Frame`` is the tabular substrate used throughout :mod:`repro` in place of
pandas (which is intentionally not a dependency).  It stores one NumPy array
per column, keeps all operations vectorized, and returns *views* where the
semantics allow it (column access) and copies where they do not (filtering,
sorting).

Only the relational operations the reproduction needs are implemented:
selection, boolean filtering, stable multi-key sorting, inner/left joins
and quantiles.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Frame"]


def _as_column(values: Any, n_expected: int | None) -> np.ndarray:
    """Coerce ``values`` to a 1-D NumPy array, validating length."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        if n_expected is None:
            raise ValueError("scalar column requires known frame length")
        arr = np.full(n_expected, arr[()])
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if n_expected is not None and len(arr) != n_expected:
        raise ValueError(
            f"column length {len(arr)} != frame length {n_expected}"
        )
    # Normalise Python-object string columns to NumPy unicode for vectorized ops.
    if arr.dtype == object and len(arr) and isinstance(arr[0], str):
        arr = arr.astype(str)
    return arr


class Frame:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    columns:
        Mapping from column name to 1-D array-like.  All columns must have
        equal length.

    Examples
    --------
    >>> f = Frame({"a": [1, 2, 3], "b": [10.0, 20.0, 30.0]})
    >>> f.filter(f["a"] > 1).num_rows
    2
    """

    __slots__ = ("_data", "_length")

    def __init__(self, columns: Mapping[str, Any] | None = None) -> None:
        self._data: dict[str, np.ndarray] = {}
        self._length: int = 0
        if columns:
            n: int | None = None
            for name, values in columns.items():
                arr = _as_column(values, n)
                if n is None:
                    n = len(arr)
                self._data[str(name)] = arr
            self._length = n or 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._length

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._data)

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._data)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> np.ndarray:
        """Return the column array (a view, do not mutate)."""
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(
            np.array_equal(self._data[c], other._data[c], equal_nan=True)
            if np.issubdtype(self._data[c].dtype, np.floating)
            else np.array_equal(self._data[c], other._data[c])
            for c in self._data
        )

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{k}:{v.dtype}" for k, v in list(self._data.items())[:8]
        )
        more = "..." if self.num_columns > 8 else ""
        return f"Frame({self.num_rows} rows; {cols}{more})"

    def copy(self) -> "Frame":
        """Deep copy (copies every column array)."""
        out = Frame()
        out._data = {k: v.copy() for k, v in self._data.items()}
        out._length = self._length
        return out

    # ------------------------------------------------------------------
    # Column-level operations
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Frame":
        """Return a new Frame with only ``names`` columns (shared arrays)."""
        out = Frame()
        out._data = {n: self[n] for n in names}
        out._length = self._length
        return out

    def with_column(self, name: str, values: Any) -> "Frame":
        """Return a new Frame with ``name`` added or replaced."""
        arr = _as_column(values, self._length if self._data else None)
        out = Frame()
        out._data = dict(self._data)
        out._data[str(name)] = arr
        out._length = len(arr)
        return out

    def drop(self, names: Sequence[str] | str) -> "Frame":
        """Return a new Frame without the given columns."""
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._data]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}")
        out = Frame()
        out._data = {k: v for k, v in self._data.items() if k not in set(names)}
        out._length = self._length
        return out

    # ------------------------------------------------------------------
    # Row-level operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Frame":
        """Return rows at ``indices`` (fancy indexing; copies)."""
        indices = np.asarray(indices)
        out = Frame()
        out._data = {k: v[indices] for k, v in self._data.items()}
        out._length = int(len(indices))
        return out

    def filter(self, mask: np.ndarray) -> "Frame":
        """Return rows where boolean ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError("filter requires a boolean mask")
        if len(mask) != self._length:
            raise ValueError(
                f"mask length {len(mask)} != frame length {self._length}"
            )
        out = Frame()
        out._data = {k: v[mask] for k, v in self._data.items()}
        out._length = int(mask.sum())
        return out

    def head(self, n: int = 5) -> "Frame":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sort_by(self, keys: Sequence[str] | str, descending: bool = False) -> "Frame":
        """Stable sort by one or more key columns (last key varies slowest)."""
        if isinstance(keys, str):
            keys = [keys]
        order = np.lexsort(tuple(self[k] for k in keys))
        if descending:
            order = order[::-1]
        return self.take(order)

    def row(self, i: int) -> dict[str, Any]:
        """Return row ``i`` as a plain dict (slow path, for tests/printing)."""
        return {k: v[i].item() if v[i].shape == () else v[i] for k, v in self._data.items()}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def quantile(self, name: str, q: float | Sequence[float]) -> np.ndarray | float:
        """Quantile(s) of a numeric column (linear interpolation).

        Raises
        ------
        ValueError
            If the column is empty — NumPy's bare ``IndexError`` on empty
            input names neither the column nor the operation.
        """
        values = self[name]
        if len(values) == 0:
            raise ValueError(f"cannot compute quantiles of empty column {name!r}")
        result = np.quantile(values, q)
        return result

    # ------------------------------------------------------------------
    # Joins / concat
    # ------------------------------------------------------------------
    def join(
        self,
        other: "Frame",
        on: str,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "Frame":
        """Join with ``other`` on column ``on``.

        ``how`` is ``"inner"`` or ``"left"``.  For left joins, unmatched
        numeric right columns are filled with NaN; other dtypes raise.
        Right side must have unique keys (lookup-table semantics).
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        right_keys = other[on]
        uniq, first_idx = np.unique(right_keys, return_index=True)
        if len(uniq) != len(right_keys):
            raise ValueError("join: right side keys must be unique")
        pos = np.searchsorted(uniq, self[on])
        pos_clipped = np.clip(pos, 0, len(uniq) - 1)
        matched = uniq[pos_clipped] == self[on]
        right_rows = first_idx[pos_clipped]

        if how == "inner":
            left = self.filter(matched)
            rows = right_rows[matched]
            out = Frame()
            out._data = dict(left._data)
            out._length = left._length
            for k, v in other._data.items():
                if k == on:
                    continue
                out._data[k if k not in out._data else k + suffix] = v[rows]
            return out

        # left join
        out = Frame()
        out._data = dict(self._data)
        out._length = self._length
        for k, v in other._data.items():
            if k == on:
                continue
            col = v[right_rows]
            if not matched.all():
                if np.issubdtype(col.dtype, np.integer):
                    col = col.astype(float)
                if np.issubdtype(col.dtype, np.floating):
                    col = col.copy()
                    col[~matched] = np.nan
                else:
                    raise TypeError(
                        f"left join cannot fill dtype {col.dtype} for column {k!r}"
                    )
            out._data[k if k not in out._data else k + suffix] = col
        return out

    @staticmethod
    def concat(frames: Sequence["Frame"]) -> "Frame":
        """Concatenate frames with identical column sets row-wise."""
        frames = [f for f in frames if f.num_rows or f.num_columns]
        if not frames:
            return Frame()
        names = frames[0].column_names
        for f in frames[1:]:
            if f.column_names != names:
                raise ValueError("concat requires identical column names/order")
        out = Frame()
        out._data = {
            n: np.concatenate([f[n] for f in frames]) for n in names
        }
        out._length = sum(f.num_rows for f in frames)
        return out

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def apply(self, name: str, fn: Callable[[np.ndarray], np.ndarray]) -> "Frame":
        """Return a new Frame with ``fn`` applied to column ``name``."""
        return self.with_column(name, fn(self[name]))

    def to_dict(self) -> dict[str, np.ndarray]:
        """Return the underlying column mapping (shared arrays)."""
        return dict(self._data)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of a column."""
        return np.unique(self[name])

    def describe(self) -> "Frame":
        """Summary statistics of every numeric column.

        Returns a Frame with one row per numeric column: count, mean, std,
        min, median, max (strings/objects are skipped).
        """
        names, counts, means, stds, mins, medians, maxs = (
            [], [], [], [], [], [], []
        )
        for name, col in self._data.items():
            if not np.issubdtype(col.dtype, np.number):
                continue
            values = col.astype(float)
            finite = values[np.isfinite(values)]
            names.append(name)
            counts.append(len(finite))
            if len(finite):
                means.append(float(finite.mean()))
                stds.append(float(finite.std()))
                mins.append(float(finite.min()))
                medians.append(float(np.median(finite)))
                maxs.append(float(finite.max()))
            else:
                for acc in (means, stds, mins, medians, maxs):
                    acc.append(float("nan"))
        return Frame(
            {
                "column": np.array(names, dtype=str),
                "count": np.array(counts, dtype=np.int64),
                "mean": means,
                "std": stds,
                "min": mins,
                "median": medians,
                "max": maxs,
            }
        )
