"""Tests for statistical helpers (ecdf, violin, share) incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.frame import (
    cross_shares,
    ecdf,
    ecdf_at,
    histogram_counts,
    log_bins,
    share,
    violin_summary,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestEcdf:
    def test_simple(self):
        x, p = ecdf(np.array([1.0, 2.0, 2.0, 3.0]))
        assert list(x) == [1.0, 2.0, 3.0]
        assert list(p) == [0.25, 0.75, 1.0]

    def test_empty(self):
        x, p = ecdf(np.array([]))
        assert len(x) == 0 and len(p) == 0

    @given(hnp.arrays(float, st.integers(1, 200), elements=finite_floats))
    @settings(max_examples=50)
    def test_properties(self, values):
        x, p = ecdf(values)
        assert np.all(np.diff(x) > 0)          # support strictly increasing
        assert np.all(np.diff(p) > 0)          # probabilities increasing
        assert p[-1] == pytest.approx(1.0)     # reaches 1
        assert np.all((p > 0) & (p <= 1))

    @given(hnp.arrays(float, st.integers(1, 100), elements=finite_floats))
    @settings(max_examples=50)
    def test_ecdf_at_agrees(self, values):
        x, p = ecdf(values)
        assert np.allclose(ecdf_at(values, x), p)

    def test_ecdf_at_outside_support(self):
        v = np.array([1.0, 2.0])
        assert ecdf_at(v, np.array([0.0]))[0] == 0.0
        assert ecdf_at(v, np.array([5.0]))[0] == 1.0

    def test_ecdf_at_empty_values(self):
        assert ecdf_at(np.array([]), np.array([1.0, 2.0])).sum() == 0


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

    @given(hnp.arrays(float, st.integers(1, 100),
                      elements=st.floats(0.001, 1e6)))
    @settings(max_examples=30)
    def test_bounds_property(self, values):
        v = violin_summary(values)
        assert v.minimum == values.min() and v.maximum == values.max()
        # 1-ulp tolerance: np.mean of identical values can exceed max
        assert v.minimum * (1 - 1e-12) <= v.mean <= v.maximum * (1 + 1e-12)


class TestBins:
    def test_histogram_counts(self):
        c = histogram_counts(np.array([1.0, 2.0, 3.0]), np.array([0, 2, 4]))
        assert list(c) == [1, 2]

    def test_log_bins_cover_range(self):
        b = log_bins(1.0, 1000.0, per_decade=5)
        assert b[0] == pytest.approx(1.0)
        assert b[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(np.log10(b)) > 0)

    def test_log_bins_need_positive(self):
        with pytest.raises(ValueError):
            log_bins(0.0, 10.0)
