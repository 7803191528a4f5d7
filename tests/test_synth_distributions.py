"""Tests for the generator's parametric distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synth import (
    ClippedDist,
    ConstantDist,
    DiscreteDist,
    LogNormalDist,
    MixtureDist,
    zipf_weights,
)
from repro.traces.synth.distributions import SizeConditionalRuntime

RNG = lambda s=0: np.random.default_rng(s)


class TestLogNormal:
    def test_median_matches(self):
        d = LogNormalDist(median=100.0, sigma=1.0)
        samples = d.sample(RNG(), 40_000)
        assert np.median(samples) == pytest.approx(100.0, rel=0.05)

    def test_mean_formula(self):
        d = LogNormalDist(median=100.0, sigma=0.5)
        samples = d.sample(RNG(), 100_000)
        assert samples.mean() == pytest.approx(d.mean(), rel=0.03)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormalDist(median=-1.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormalDist(median=1.0, sigma=-0.1)

    @given(st.floats(1.0, 1e5), st.floats(0.0, 2.0))
    @settings(max_examples=25)
    def test_samples_positive(self, median, sigma):
        d = LogNormalDist(median=median, sigma=sigma)
        assert np.all(d.sample(RNG(), 100) > 0)


class TestMixture:
    def test_weights_must_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureDist.of((0.5, ConstantDist(1.0)), (0.2, ConstantDist(2.0)))

    def test_mean_is_weighted(self):
        m = MixtureDist.of((0.25, ConstantDist(0.0)), (0.75, ConstantDist(4.0)))
        assert m.mean() == pytest.approx(3.0)
        s = m.sample(RNG(), 20_000)
        assert s.mean() == pytest.approx(3.0, rel=0.05)

    def test_component_proportions(self):
        m = MixtureDist.of((0.3, ConstantDist(1.0)), (0.7, ConstantDist(2.0)))
        s = m.sample(RNG(), 50_000)
        assert np.mean(s == 1.0) == pytest.approx(0.3, abs=0.01)


class TestDiscrete:
    def test_values_and_probs(self):
        d = DiscreteDist.of((0.9, 1), (0.1, 8))
        s = d.sample(RNG(), 50_000)
        assert set(np.unique(s)) == {1.0, 8.0}
        assert np.mean(s == 8.0) == pytest.approx(0.1, abs=0.01)

    def test_mean(self):
        assert DiscreteDist.of((0.5, 2), (0.5, 4)).mean() == 3.0

    def test_misaligned(self):
        with pytest.raises(ValueError):
            DiscreteDist(values=(1, 2), probs=(1.0,))


class TestClipped:
    def test_clipping(self):
        d = ClippedDist(LogNormalDist(100.0, 2.0), lo=10.0, hi=1000.0)
        s = d.sample(RNG(), 10_000)
        assert s.min() >= 10.0 and s.max() <= 1000.0

    def test_mean_estimate_within_bounds(self):
        d = ClippedDist(LogNormalDist(100.0, 2.0), lo=10.0, hi=1000.0)
        assert 10.0 <= d.mean() <= 1000.0


class TestUniformConstant:
    def test_constant(self):
        assert np.all(ConstantDist(7.0).sample(RNG(), 5) == 7.0)


class TestSizeConditional:
    def test_bucket_routing(self):
        sc = SizeConditionalRuntime(
            buckets=(
                (1, ConstantDist(10.0)),
                (8, ConstantDist(20.0)),
                (float("inf"), ConstantDist(30.0)),
            )
        )
        out = sc.sample_for(RNG(), np.array([1, 2, 8, 9, 100]))
        assert list(out) == [10.0, 20.0, 20.0, 30.0, 30.0]

    def test_requires_inf_terminal(self):
        with pytest.raises(ValueError, match="infinity"):
            SizeConditionalRuntime(buckets=((8, ConstantDist(1.0)),))

    def test_requires_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            SizeConditionalRuntime(
                buckets=(
                    (8, ConstantDist(1.0)),
                    (1, ConstantDist(2.0)),
                    (float("inf"), ConstantDist(3.0)),
                )
            )


class TestZipf:
    def test_normalized(self):
        w = zipf_weights(10, 1.5)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_flat_when_s_zero(self):
        assert np.allclose(zipf_weights(4, 0.0), 0.25)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    def test_hpc_concentration_targets(self):
        # the Fig 8 design targets: HPC s=2.0 top-3 > 0.8 of an 8-config pool
        w = zipf_weights(8, 2.0)
        assert w[:3].sum() > 0.80
        # DL s=1.15 over 14 configs: top-3 < 0.65, top-10 > 0.85
        w = zipf_weights(14, 1.15)
        assert w[:3].sum() < 0.65
        assert w[:10].sum() > 0.85
