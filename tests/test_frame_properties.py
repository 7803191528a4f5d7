"""Property-based tests: Frame relational ops against brute-force oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Frame

small_ints = st.integers(0, 8)
floats = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def frames(draw):
    n = draw(st.integers(1, 40))
    return Frame(
        {
            "k": np.array(draw(st.lists(small_ints, min_size=n, max_size=n))),
            "v": np.array(draw(st.lists(floats, min_size=n, max_size=n))),
        }
    )


class TestSortFilterOracle:
    @given(frames())
    @settings(max_examples=40, deadline=None)
    def test_sort_is_permutation(self, f):
        s = f.sort_by("v")
        assert sorted(s["v"]) == sorted(f["v"])
        assert np.all(np.diff(s["v"]) >= 0)

    @given(frames(), small_ints)
    @settings(max_examples=40, deadline=None)
    def test_filter_complement(self, f, k):
        hit = f.filter(f["k"] == k)
        miss = f.filter(f["k"] != k)
        assert hit.num_rows + miss.num_rows == f.num_rows
        assert np.all(hit["k"] == k)


class TestJoinOracle:
    @given(frames())
    @settings(max_examples=40, deadline=None)
    def test_inner_join_with_lookup(self, f):
        keys = np.unique(f["k"])
        lookup = Frame({"k": keys, "w": keys * 10.0})
        joined = f.join(lookup, on="k")
        # every row matches (lookup covers all keys) and w is consistent
        assert joined.num_rows == f.num_rows
        assert np.allclose(joined["w"], joined["k"] * 10.0)


class TestDescribeProperty:
    @given(frames())
    @settings(max_examples=40, deadline=None)
    def test_describe_consistent(self, f):
        d = f.describe()
        row = {d["column"][i]: i for i in range(d.num_rows)}
        i = row["v"]
        assert d["min"][i] <= d["median"][i] <= d["max"][i]
        assert d["count"][i] == f.num_rows
