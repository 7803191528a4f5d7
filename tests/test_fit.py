"""Tests for workload-model fitting (EM mixtures + calibration cloning)."""

import dataclasses

import numpy as np
import pytest

from repro.frame import Frame
from repro.traces import PHILLY, Trace
from repro.traces.synth import (
    fit_calibration,
    fit_lognormal_mixture,
    generate_trace,
)
from repro.traces.synth.fit import _fit_diurnal

RNG = lambda s=0: np.random.default_rng(s)


class TestMixtureEM:
    def test_recovers_two_components(self):
        rng = RNG(0)
        vals = np.concatenate(
            [
                rng.lognormal(np.log(60), 0.5, 4000),
                rng.lognormal(np.log(7200), 0.7, 6000),
            ]
        )
        fit = fit_lognormal_mixture(vals, n_components=2)
        assert fit.medians[0] == pytest.approx(60, rel=0.15)
        assert fit.medians[1] == pytest.approx(7200, rel=0.15)
        assert fit.weights[0] == pytest.approx(0.4, abs=0.05)

    def test_single_component(self):
        vals = RNG(1).lognormal(np.log(500), 0.8, 5000)
        fit = fit_lognormal_mixture(vals, n_components=1)
        assert fit.medians[0] == pytest.approx(500, rel=0.1)
        assert fit.sigmas[0] == pytest.approx(0.8, abs=0.1)

    def test_medians_sorted(self):
        vals = RNG(2).lognormal(5, 1.5, 3000)
        fit = fit_lognormal_mixture(vals, n_components=3)
        assert np.all(np.diff(fit.medians) >= 0)

    def test_weights_normalized(self):
        vals = RNG(3).lognormal(4, 1, 1000)
        fit = fit_lognormal_mixture(vals, n_components=2)
        assert fit.weights.sum() == pytest.approx(1.0)

    def test_ll_increases_with_components(self):
        rng = RNG(4)
        vals = np.concatenate(
            [rng.lognormal(2, 0.3, 2000), rng.lognormal(7, 0.3, 2000)]
        )
        ll1 = fit_lognormal_mixture(vals, n_components=1).log_likelihood
        ll2 = fit_lognormal_mixture(vals, n_components=2).log_likelihood
        assert ll2 > ll1

    def test_nonpositive_filtered(self):
        vals = np.concatenate([[0.0, -5.0], RNG(5).lognormal(3, 1, 500)])
        fit = fit_lognormal_mixture(vals, n_components=1)
        assert np.isfinite(fit.log_likelihood)

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            fit_lognormal_mixture(np.array([1.0, 2.0]), n_components=3)

    def test_to_distribution_sampleable(self):
        vals = RNG(6).lognormal(4, 1, 2000)
        dist = fit_lognormal_mixture(vals, 2).to_distribution(1.0, 1e6)
        samples = dist.sample(RNG(7), 5000)
        assert np.median(samples) == pytest.approx(np.median(vals), rel=0.2)


class TestCalibrationFit:
    @pytest.fixture(scope="class")
    def source(self):
        return generate_trace("theta", days=8, seed=4)

    @pytest.fixture(scope="class")
    def clone(self, source):
        cal = fit_calibration(source)
        return generate_trace(cal, days=8, seed=101)

    def test_job_rate_preserved(self, source, clone):
        assert clone.num_jobs == pytest.approx(source.num_jobs, rel=0.25)

    def test_runtime_distribution_close(self, source, clone):
        med_s = np.median(source["runtime"])
        med_c = np.median(clone["runtime"])
        assert med_c == pytest.approx(med_s, rel=0.5)

    def test_pass_rate_close(self, source, clone):
        ps = float((source["status"] == 0).mean())
        pc = float((clone["status"] == 0).mean())
        assert pc == pytest.approx(ps, abs=0.1)

    def test_wait_scale_close(self, source, clone):
        ms = np.median(source["wait_time"])
        mc = np.median(clone["wait_time"])
        assert mc == pytest.approx(ms, rel=0.6)

    def test_system_preserved(self, source, clone):
        assert clone.system is source.system

    def test_walltime_behaviour_preserved(self, source, clone):
        # Theta has walltimes; the clone must too, covering runtimes
        assert np.isfinite(clone["req_walltime"]).mean() > 0.99

    def test_dl_trace_without_walltimes(self):
        source = generate_trace("helios", days=0.5, seed=4)
        cal = fit_calibration(source)
        assert cal.walltime_factor is None

    def test_too_small_rejected(self):
        tiny = generate_trace("theta", days=0.5, seed=4, jobs_per_day=60)
        with pytest.raises(ValueError, match="at least 100"):
            fit_calibration(tiny)


def _diurnal_by_modulo(trace):
    """The fitted hour weights by the modular expression ``_fit_diurnal``
    used before it called ``hourly_counts``."""
    local = trace["submit_time"] + trace.system.tz_offset_hours * 3600.0
    hours = ((local % 86400.0) // 3600.0).astype(int) % 24
    return np.bincount(hours, minlength=24).astype(float) + 1.0


def _trace_at(submit, tz=0):
    system = dataclasses.replace(PHILLY, tz_offset_hours=tz)
    n = len(submit)
    return Trace(
        system=system,
        jobs=Frame(
            {
                "submit_time": np.asarray(submit, dtype=float),
                "runtime": np.full(n, 60.0),
                "cores": np.ones(n, dtype=int),
                "wait_time": np.zeros(n),
                "status": np.zeros(n, dtype=int),
            }
        ),
    )


class TestFittedDiurnal:
    """``repro clone`` bins hours with ``hourly_counts``, as Fig 1b does."""

    @pytest.mark.parametrize("system", ["theta", "helios", "philly"])
    def test_generated_trace_bins_as_before(self, system):
        trace = generate_trace(system, days=3, seed=2)
        got = np.asarray(_fit_diurnal(trace).weights)
        assert got.tobytes() == _diurnal_by_modulo(trace).tobytes()

    @pytest.mark.parametrize("tz", [-8, 0, 8])
    def test_boundaries_and_order(self, tz):
        rng = np.random.default_rng(tz + 10)
        edges = 3600.0 * np.arange(-30, 80)
        submit = rng.permutation(
            np.concatenate([edges, edges + 0.5, edges - 0.5, rng.uniform(-1e5, 3e5, 500)])
        )
        trace = _trace_at(submit, tz)
        got = np.asarray(_fit_diurnal(trace).weights)
        assert got.tobytes() == _diurnal_by_modulo(trace).tobytes()

    def test_one_ulp_before_a_negative_hour_is_the_earlier_hour(self):
        # The only input on which the fit changed: the modular expression
        # rounds a local time one ulp below a negative hour boundary up
        # into the next hour; hourly_counts takes the floor.
        trace = _trace_at([np.nextafter(-3600.0, -np.inf), 0.0])
        got = np.asarray(_fit_diurnal(trace).weights)
        before = _diurnal_by_modulo(trace)
        assert got[22] == 2.0 and got[23] == 1.0
        assert before[22] == 1.0 and before[23] == 2.0
        assert np.delete(got, [22, 23]).tolist() == np.delete(before, [22, 23]).tolist()
