"""Tests for statistical helpers (ecdf_at, violin, share) incl. property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.frame import (
    cross_shares,
    ecdf_at,
    share,
    violin_summary,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestEcdf:
    @given(hnp.arrays(float, st.integers(1, 100), elements=finite_floats))
    @settings(max_examples=50)
    def test_ecdf_at_agrees(self, values):
        x, counts = np.unique(values, return_counts=True)
        assert np.allclose(ecdf_at(values, x), np.cumsum(counts) / len(values))

    def test_ecdf_at_outside_support(self):
        v = np.array([1.0, 2.0])
        assert ecdf_at(v, np.array([0.0]))[0] == 0.0
        assert ecdf_at(v, np.array([5.0]))[0] == 1.0

    def test_ecdf_at_empty_values(self):
        assert ecdf_at(np.array([]), np.array([1.0, 2.0])).sum() == 0


def _ecdf_at_by_sort(values, points):
    """The ECDF by sorting and searching, as ``ecdf_at`` computed it before
    it counted."""
    values = np.sort(np.asarray(values, dtype=float))
    points = np.asarray(points, dtype=float)
    if values.size == 0:
        return np.zeros_like(points)
    return np.searchsorted(values, points, side="right") / len(values)


#: values with NaN, both infinities and many duplicates
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, 1.0, 2.5, -3.0])


class TestEcdfAtCounts:
    """``ecdf_at`` searches sorted values and counts ``values <= p`` in any
    others; the sort-then-search it replaced is the reference."""

    @given(
        hnp.arrays(float, st.integers(0, 60), elements=st.one_of(SPECIAL, finite_floats)),
        hnp.arrays(float, st.integers(0, 12), elements=st.one_of(SPECIAL, finite_floats)),
    )
    @settings(max_examples=300)
    def test_matches_sorted_search(self, values, points):
        expected = _ecdf_at_by_sort(values, points)
        # unsorted values are counted, sorted ones searched
        for v in (values, np.sort(values)):
            got = ecdf_at(v, points)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_special_values_and_unsorted_probes(self):
        values = np.array([np.nan, 3.0, -np.inf, 3.0, np.inf, 1.0, np.nan])
        points = np.array([np.inf, 3.0, np.nan, -np.inf, 0.0, 3.0, 10.0, 1.0])
        got = ecdf_at(values, points)
        assert got.tobytes() == _ecdf_at_by_sort(values, points).tobytes()
        # NaN values count under no probe; a NaN probe reads 1.0
        assert list(got) == [5 / 7, 4 / 7, 1.0, 1 / 7, 1 / 7, 4 / 7, 4 / 7, 2 / 7]

    def test_empty_values(self):
        points = np.array([np.nan, 1.0])
        assert ecdf_at([], points).tobytes() == _ecdf_at_by_sort([], points).tobytes()

    def test_probe_shape_kept(self):
        values = np.array([2.0, 1.0, 3.0])
        for points in (np.float64(2.0), np.array([[1.0, 2.0], [3.0, 0.0]])):
            got = ecdf_at(values, points)
            np.testing.assert_array_equal(got, _ecdf_at_by_sort(values, points))
            assert np.shape(got) == np.shape(points)


class TestShare:
    def test_partition_sums_to_one(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 0, 2])
        s = share(w, labels, [0, 1, 2])
        assert s.sum() == pytest.approx(1.0)
        assert s[0] == pytest.approx(0.4)

    def test_missing_label_zero(self):
        s = share(np.array([1.0]), np.array([0]), [0, 1])
        assert s[1] == 0.0

    def test_zero_total(self):
        s = share(np.array([0.0]), np.array([0]), [0, 1])
        assert np.all(s == 0)

    def test_empty_inputs_yield_zeros(self):
        # empty-input audit: share must not raise on a jobless system
        s = share(np.array([]), np.array([]), [0, 1, 2])
        assert s.shape == (3,) and np.all(s == 0)
        s = share(None, np.array([]), [0, 1, 2])
        assert s.shape == (3,) and np.all(s == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_weights_match_ones_bit_for_bit(self, seed):
        # counts over n are exactly the masked sums of ones over n,
        # labels outside ``order`` included (they count only in n)
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 5, rng.integers(1, 3000))
        for order in ([0, 1, 2], [2, 0], [4, 1, 3]):
            counted = share(None, labels, order)
            summed = share(np.ones(len(labels)), labels, order)
            assert counted.tobytes() == summed.tobytes()


class TestCrossShares:
    @pytest.mark.parametrize("seed", range(5))
    def test_match_masked_means_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 2000))
        rows = rng.integers(0, 3, n).astype(np.int8)
        cols = rng.integers(-2, 6, n)  # labels outside 0..3 too
        shares, sizes = cross_shares(rows, cols, 3, 4)
        assert shares.shape == (3, 4) and sizes.dtype == np.int64
        for r in range(3):
            mask = rows == r
            assert sizes[r] == mask.sum()
            want = [np.mean(cols[mask] == c) if mask.any() else np.nan for c in range(4)]
            assert shares[r].tobytes() == np.array(want).tobytes()

    def test_single_row_and_empty_row(self):
        shares, sizes = cross_shares(None, np.array([0, 2, 2, 7]), 1, 3)
        np.testing.assert_array_equal(shares, [[0.25, 0.0, 0.5]])
        np.testing.assert_array_equal(sizes, [4])
        shares, sizes = cross_shares(np.array([0, 0]), np.array([1, 1]), 2, 2)
        assert np.isnan(shares[1]).all() and sizes[1] == 0


class TestViolin:
    def test_order_of_quantiles(self):
        rng = np.random.default_rng(0)
        v = violin_summary(rng.lognormal(3, 1, 1000))
        assert (
            v.minimum <= v.p05 <= v.p25 <= v.median <= v.p75 <= v.p95 <= v.maximum
        )
        assert v.count == 1000

    def test_mode_near_median_for_lognormal(self):
        rng = np.random.default_rng(1)
        vals = rng.lognormal(np.log(100), 0.3, 5000)
        v = violin_summary(vals)
        assert 50 < v.mode < 200  # log-space mode near the median

    def test_empty(self):
        v = violin_summary(np.array([]))
        assert v.count == 0 and np.isnan(v.median)

    def test_single_value(self):
        v = violin_summary(np.array([5.0]))
        assert v.median == 5.0 and v.count == 1

    def test_as_dict_keys(self):
        d = violin_summary(np.array([1.0, 2.0])).as_dict()
        assert {"count", "min", "median", "max", "mode"} <= set(d)

    @given(
        hnp.arrays(
            float,
            st.integers(1, 80),
            elements=st.one_of(finite_floats, st.sampled_from([0.0, 1.0, 1.0, 60.0])),
        )
    )
    @example(np.array([5e-324, 0.0]))  # a span narrower than two bins
    @settings(max_examples=200)
    def test_quantiles_byte_equal_to_unsorted_quantile(self, values):
        # +0.0 folds -0.0 into 0.0: which signed zero a selection returns
        # is defined by neither the sort nor the partition
        values = values + 0.0
        v = violin_summary(values)
        got = np.array([v.p05, v.p25, v.median, v.p75, v.p95])
        expected = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
        assert got.tobytes() == expected.tobytes()
        # the mean still reads the input order
        assert np.float64(v.mean).tobytes() == values.mean().tobytes()

    @given(hnp.arrays(float, st.integers(1, 100),
                      elements=st.floats(0.001, 1e6)))
    @settings(max_examples=30)
    def test_bounds_property(self, values):
        v = violin_summary(values)
        assert v.minimum == values.min() and v.maximum == values.max()
        # 1-ulp tolerance: np.mean of identical values can exceed max
        assert v.minimum * (1 - 1e-12) <= v.mean <= v.maximum * (1 + 1e-12)
