"""Unit tests for the columnar Frame substrate."""

import numpy as np
import pytest

from repro.frame import Frame


@pytest.fixture
def small():
    return Frame(
        {
            "a": [3, 1, 2, 1],
            "b": [30.0, 10.0, 20.0, 11.0],
            "name": ["x", "y", "z", "y"],
        }
    )


class TestConstruction:
    def test_basic_shape(self, small):
        assert small.num_rows == 4
        assert small.num_columns == 3
        assert small.column_names == ["a", "b", "name"]

    def test_empty(self):
        f = Frame()
        assert f.num_rows == 0
        assert f.num_columns == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            Frame({"a": [1, 2], "b": [1, 2, 3]})

    def test_2d_column_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            Frame({"a": np.zeros((2, 2))})

    def test_missing_column_keyerror_lists_available(self, small):
        with pytest.raises(KeyError, match="no column 'zz'"):
            small["zz"]

    def test_contains(self, small):
        assert "a" in small
        assert "zz" not in small

    def test_copy_is_deep(self, small):
        c = small.copy()
        c["a"][0] = 99
        assert small["a"][0] == 3

    def test_equality(self, small):
        assert small == small.copy()
        assert small != small.filter(small["a"] > 1)

    def test_repr_mentions_rows(self, small):
        assert "4 rows" in repr(small)


class TestColumnOps:
    def test_select(self, small):
        s = small.select(["b", "a"])
        assert s.column_names == ["b", "a"]
        assert s.num_rows == 4

    def test_with_column_adds(self, small):
        f = small.with_column("c", np.arange(4))
        assert "c" in f and "c" not in small

    def test_with_column_replaces(self, small):
        f = small.with_column("a", np.zeros(4))
        assert f["a"].sum() == 0

    def test_with_column_scalar_broadcast(self, small):
        f = small.with_column("k", np.int64(7))
        assert np.all(f["k"] == 7)

    def test_drop(self, small):
        f = small.drop("name")
        assert f.column_names == ["a", "b"]

    def test_drop_missing_raises(self, small):
        with pytest.raises(KeyError):
            small.drop(["nope"])

    def test_apply(self, small):
        f = small.apply("b", lambda x: x * 2)
        assert f["b"][0] == 60.0


class TestRowOps:
    def test_filter(self, small):
        f = small.filter(small["a"] == 1)
        assert f.num_rows == 2
        assert list(f["b"]) == [10.0, 11.0]

    def test_filter_requires_bool(self, small):
        with pytest.raises(TypeError):
            small.filter(np.array([1, 0, 1, 0]))

    def test_filter_length_check(self, small):
        with pytest.raises(ValueError):
            small.filter(np.array([True]))

    def test_take(self, small):
        f = small.take(np.array([2, 0]))
        assert list(f["a"]) == [2, 3]

    def test_head(self, small):
        assert small.head(2).num_rows == 2
        assert small.head(100).num_rows == 4

    def test_sort_single_key(self, small):
        f = small.sort_by("a")
        assert list(f["a"]) == [1, 1, 2, 3]

    def test_sort_is_stable(self, small):
        f = small.sort_by("a")
        # the two a==1 rows keep original relative order (b: 10 then 11)
        assert list(f["b"][:2]) == [10.0, 11.0]

    def test_sort_descending(self, small):
        f = small.sort_by("a", descending=True)
        assert f["a"][0] == 3

    def test_sort_multi_key(self):
        f = Frame({"k": [1, 1, 0], "v": [2, 1, 9]}).sort_by(["v", "k"])
        # lexsort: last key ('k') is primary
        assert list(f["k"]) == [0, 1, 1]
        assert list(f["v"]) == [9, 1, 2]

    def test_row_and_iter(self, small):
        assert small.row(0) == {"a": 3, "b": 30.0, "name": "x"}


class TestAggregation:
    def test_quantile(self, small):
        assert small.quantile("b", 0.5) == pytest.approx(15.5)

    def test_quantile_empty_column_names_column(self):
        # regression: used to surface as a bare NumPy IndexError
        empty = Frame({"b": np.array([])})
        with pytest.raises(ValueError, match="empty column 'b'"):
            empty.quantile("b", 0.5)

    def test_quantile_empty_after_filter(self, small):
        filtered = small.filter(np.zeros(small.num_rows, dtype=bool))
        with pytest.raises(ValueError, match="empty column"):
            filtered.quantile("b", [0.25, 0.75])

    def test_concat(self, small):
        f = Frame.concat([small, small])
        assert f.num_rows == 8

    def test_concat_mismatch_raises(self, small):
        with pytest.raises(ValueError):
            Frame.concat([small, small.drop("a")])

    def test_concat_empty_list(self):
        assert Frame.concat([]).num_rows == 0


class TestJoin:
    def test_inner_join(self):
        left = Frame({"k": [1, 2, 3], "v": [10, 20, 30]})
        right = Frame({"k": [2, 3, 4], "w": [200, 300, 400]})
        j = left.join(right, on="k")
        assert list(j["k"]) == [2, 3]
        assert list(j["w"]) == [200, 300]

    def test_left_join_fills_nan(self):
        left = Frame({"k": [1, 2], "v": [10, 20]})
        right = Frame({"k": [2], "w": [200.0]})
        j = left.join(right, on="k", how="left")
        assert np.isnan(j["w"][0]) and j["w"][1] == 200.0

    def test_left_join_int_promoted_to_float(self):
        left = Frame({"k": [1, 2]})
        right = Frame({"k": [2], "w": [7]})
        j = left.join(right, on="k", how="left")
        assert j["w"].dtype == float

    def test_join_duplicate_right_keys_raise(self):
        left = Frame({"k": [1]})
        right = Frame({"k": [1, 1], "w": [1, 2]})
        with pytest.raises(ValueError, match="unique"):
            left.join(right, on="k")

    def test_join_name_collision_suffixed(self):
        left = Frame({"k": [1], "v": [10]})
        right = Frame({"k": [1], "v": [99]})
        j = left.join(right, on="k")
        assert j["v"][0] == 10 and j["v_right"][0] == 99

    def test_unsupported_how(self):
        with pytest.raises(ValueError):
            Frame({"k": [1]}).join(Frame({"k": [1]}), on="k", how="outer")


class TestSummaries:
    def test_unique(self, small):
        assert list(small.unique("a")) == [1, 2, 3]

    def test_describe_numeric_only(self, small):
        d = small.describe()
        assert list(d["column"]) == ["a", "b"]
        assert d["count"][0] == 4
        assert d["median"][1] == 15.5

    def test_describe_skips_nan(self):
        f = Frame({"x": [1.0, float("nan"), 3.0]})
        d = f.describe()
        assert d["count"][0] == 2
        assert d["mean"][0] == 2.0

    def test_describe_empty_numeric(self):
        f = Frame({"x": np.array([], dtype=float)})
        d = f.describe()
        assert d["count"][0] == 0
        assert np.isnan(d["mean"][0])
