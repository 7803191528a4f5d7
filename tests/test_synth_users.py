"""Trace synthesis draws exactly what ``rng.choice`` would, and its bits are frozen.

Users' configs and session hours are drawn from CDFs built once
(:func:`choice_cdf`, :func:`sample_cdf`) instead of ``rng.choice(k, size,
p=p)`` per call.  The first tests pin the NumPy behaviour that rests on:
the same indices, the same generator state afterwards and the same
``ValueError`` for bad ``p``.

``goldens/synth_traces.json`` holds a sha256 per column of
:func:`generate_all_traces` at two (days, seed) points and of one
:func:`generate_trace` with a rate override.  Every analysis starts from
these traces, so a change to the synthesizer's arithmetic or to the order
in which it consumes the random stream fails here first, before the
engine goldens that see it only indirectly.  Regenerate with
``REPRO_UPDATE_GOLDENS=1`` only for an intended change (docs/TESTING.md).
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.traces.synth import (
    CALIBRATIONS,
    UserPopulation,
    generate_all_traces,
    generate_trace,
    zipf_weights,
)
from repro.traces.synth.distributions import choice_cdf, sample_cdf

KS = (1, 2, 7, 8, 9, 24, 40)
SIZES = (1, 2, 3, 8, 17, 100, 999, 1000)
SEEDS = (0, 1, 20240521)


def _weights(k: int) -> dict:
    """Zipf, cost-damped and zero-holding probability vectors over ``k``."""
    rng = np.random.default_rng(k)
    out = {"zipf1.3": zipf_weights(k, 1.3), "zipf2": zipf_weights(k, 2.0)}
    cost = rng.lognormal(8.0, 3.0, k)
    damped = zipf_weights(k, 1.3) * (1.0 / np.maximum(cost, 1.0)) ** 0.3
    out["damped"] = damped / damped.sum()
    if k > 1:
        holes = rng.random(k)
        holes[::3] = 0.0
        if k > 2:
            holes[-1] = 0.0
        out["zeros"] = holes / holes.sum()
    return out


@pytest.mark.parametrize("k", KS)
def test_cdf_draws_match_choice(k):
    for name, p in _weights(k).items():
        cdf = choice_cdf(p)
        for seed in SEEDS:
            expected = np.random.default_rng(seed)
            got = np.random.default_rng(seed)
            for size in SIZES:
                want = expected.choice(k, size=size, p=p)
                draw = sample_cdf(got, cdf, size)
                assert draw.dtype == want.dtype, (name, seed, size)
                assert np.array_equal(draw, want), (name, seed, size)
                assert got.bit_generator.state == expected.bit_generator.state


class _FixedUniforms(np.random.Generator):
    """A generator whose ``random`` returns given values; ``choice`` calls it."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.values[:size].copy()


def test_cdf_boundaries_match_choice():
    """Uniforms on, just below and above every CDF step pick what ``choice``
    picks, for weights that hold zeros and sum to just under 1."""
    for p in (
        np.array([0.25, 0.0, 0.25, 0.5 - 1e-10]),
        np.array([0.0, 0.5, 0.0, 0.5 - 1e-12, 0.0]),
        zipf_weights(9, 1.3),
    ):
        cdf = choice_cdf(p)
        u = np.concatenate(
            [[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
             [1.0 - 1e-11, np.nextafter(1.0, 0.0)]]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        want = _FixedUniforms(u).choice(len(p), size=len(u), p=p)
        assert np.array_equal(sample_cdf(_FixedUniforms(u), cdf, len(u)), want)


def test_cdf_rows_equal_one_row_at_a_time():
    rng = np.random.default_rng(3)
    for k in KS:
        w = zipf_weights(k, 2.0) * rng.random((50, k))
        w = w / w.sum(axis=1, keepdims=True)
        rows = choice_cdf(w)
        for i in range(len(w)):
            assert np.array_equal(rows[i], choice_cdf(w[i]))


@pytest.mark.parametrize(
    "p",
    [
        [0.5, -0.1, 0.6],
        [0.5, np.nan, 0.5],
        [0.5, np.inf, 0.5],
        [0.5, 0.5, 0.01],
        [0.2, 0.2, 0.2],
        [0.0, 0.0, 0.0],
    ],
)
def test_bad_probabilities_raise_like_choice(p):
    p = np.asarray(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), size=4, p=p)
    with pytest.raises(ValueError):
        choice_cdf(p)
    with pytest.raises(ValueError):
        choice_cdf(np.stack([zipf_weights(len(p), 1.0), p]))


@pytest.mark.parametrize("system", sorted(CALIBRATIONS))
def test_population_cdf_is_each_users_choice_cdf(system):
    """The population's grouped build equals a one-user-at-a-time build."""
    cal = CALIBRATIONS[system]
    pop = UserPopulation.build(
        np.random.default_rng(5),
        n_users=cal.n_users,
        configs_per_user_mean=cal.configs_per_user_mean,
        size_dist=cal.size_dist,
        size_rounding=cal.size_rounding,
        max_cores=cal.system.schedulable_units,
        runtime_dist=cal.runtime_dist,
        zipf_s=cal.config_zipf_s,
        max_config_core_seconds=cal.max_config_core_seconds,
        cost_damping=cal.cost_damping,
        cost_ref=cal.cost_ref,
    )
    for u in range(pop.n_users):
        lo, hi = pop.user_offsets[u], pop.user_offsets[u + 1]
        w = zipf_weights(hi - lo, pop.zipf_s)
        if pop.cost_damping > 0.0:
            cost = pop.config_cores[lo:hi] * pop.config_runtime[lo:hi]
            w = w * (pop.cost_ref / np.maximum(cost, pop.cost_ref)) ** pop.cost_damping
            w = w / w.sum()
        assert np.array_equal(pop.config_cdf[lo:hi], choice_cdf(w)), u


@pytest.mark.parametrize("system", sorted(CALIBRATIONS))
def test_session_hours_match_choice(system):
    profile = CALIBRATIONS[system].diurnal
    expected, got = np.random.default_rng(11), np.random.default_rng(11)
    for size in SIZES:
        hours = expected.choice(24, size=size, p=profile.normalized)
        want = hours * 3600.0 + expected.uniform(0, 3600.0, size=size)
        assert np.array_equal(profile.sample_times_of_day(got, size), want)
    assert got.bit_generator.state == expected.bit_generator.state


SYNTH_GOLDEN = Path(__file__).parent / "goldens" / "synth_traces.json"


def _column_digests(trace) -> dict:
    """``{column: "<dtype>:<sha256 of the column's bytes>"}`` for one trace."""
    jobs = trace.jobs
    return {
        name: f"{jobs[name].dtype.str}:"
        + hashlib.sha256(jobs[name].tobytes()).hexdigest()
        for name in jobs.column_names
    }


def _synth_digests() -> dict:
    out: dict = {}
    for days, seed in ((2, 0), (3, 7)):
        for name, trace in generate_all_traces(days=days, seed=seed).items():
            out[f"all/days={days}/seed={seed}/{name}"] = {
                "n_jobs": trace.num_jobs,
                "columns": _column_digests(trace),
            }
    trace = generate_trace("mira", days=4, seed=5, jobs_per_day=300.0)
    out["mira/days=4/seed=5/jobs_per_day=300"] = {
        "n_jobs": trace.num_jobs,
        "columns": _column_digests(trace),
    }
    return out


def test_synth_traces_match_golden():
    got = json.dumps(_synth_digests(), indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDENS", "") not in ("", "0"):
        SYNTH_GOLDEN.write_text(got)
        pytest.skip(f"regenerated {SYNTH_GOLDEN}")
    assert got == SYNTH_GOLDEN.read_text()
