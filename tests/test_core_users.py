"""Tests for per-user behaviour analyses (Fig 8-11 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.users import (
    config_groups_for_user,
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
    top_user_status_profiles,
)
from repro.frame import Frame, violin_summary
from repro.traces import PHILLY, JobStatus, Trace
from repro.traces.synth import generate_trace


class TestConfigGroups:
    def test_identical_jobs_one_group(self):
        g = config_groups_for_user(
            np.array([4, 4, 4]), np.array([100.0, 100.0, 100.0])
        )
        assert len(np.unique(g)) == 1

    def test_different_cores_different_groups(self):
        g = config_groups_for_user(np.array([1, 2]), np.array([100.0, 100.0]))
        assert g[0] != g[1]

    def test_runtime_tolerance_boundary(self):
        # 100 and 109 within 10% of their running mean; 100 and 200 not
        g = config_groups_for_user(np.array([1, 1]), np.array([100.0, 109.0]))
        assert g[0] == g[1]
        g = config_groups_for_user(np.array([1, 1]), np.array([100.0, 200.0]))
        assert g[0] != g[1]

    def test_chain_does_not_drift_unboundedly(self):
        # each step is within 10% of its neighbour but the running-mean rule
        # must eventually split a long drifting chain
        runtimes = np.array([100.0 * 1.08**i for i in range(20)])
        g = config_groups_for_user(np.ones(20, dtype=int), runtimes)
        assert len(np.unique(g)) > 1

    def test_every_job_assigned(self):
        rng = np.random.default_rng(0)
        cores = rng.choice([1, 2, 4], 100)
        rt = rng.lognormal(4, 1, 100)
        g = config_groups_for_user(cores, rt)
        assert np.all(g >= 0)

    @given(
        st.lists(st.floats(1.0, 1e5), min_size=1, max_size=40),
        st.floats(0.01, 0.3),
    )
    @settings(max_examples=30)
    def test_groups_respect_tolerance(self, runtimes, tol):
        rt = np.array(runtimes)
        g = config_groups_for_user(np.ones(len(rt), dtype=int), rt, tol)
        for gid in np.unique(g):
            member = rt[g == gid]
            mean = member.mean()
            # every member is within ~2*tol of the final mean (running-mean
            # greedy grouping guarantees closeness to the evolving centre)
            assert np.all(np.abs(member - mean) <= 2 * tol * mean + 1e-9)


def _config_groups_numpy_scalars(cores, runtime, tolerance=0.10):
    """The greedy grouping loop over NumPy scalars, kept as an oracle."""
    cores = np.asarray(cores)
    runtime = np.asarray(runtime, dtype=float)
    groups = np.full(len(cores), -1, dtype=np.int64)
    next_id = 0
    for c in np.unique(cores):
        idx = np.flatnonzero(cores == c)
        order = idx[np.argsort(runtime[idx], kind="stable")]
        mean = None
        count = 0
        for j in order:
            rt = runtime[j]
            if mean is not None and abs(rt - mean) <= tolerance * mean:
                mean = (mean * count + rt) / (count + 1)
                count += 1
            else:
                next_id += 1
                mean = rt
                count = 1
            groups[j] = next_id - 1
    return groups


#: runtimes with many exact ties and zeros, plus arbitrary values
RUNTIMES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 59.0, 60.0, 100.0, 109.0, 110.0, 3600.0]),
    st.floats(0.0, 1e7, allow_nan=False),
)


class TestConfigGroupsOracle:
    @given(
        st.lists(
            st.tuples(st.integers(1, 64), RUNTIMES), min_size=1, max_size=60
        ),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=200)
    def test_python_floats_match_numpy_scalars(self, jobs, tol):
        cores = np.array([c for c, _ in jobs], dtype=np.int64)
        runtime = np.array([r for _, r in jobs])
        expected = _config_groups_numpy_scalars(cores, runtime, tol)
        got = config_groups_for_user(cores, runtime, tol)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_single_job_user(self):
        g = config_groups_for_user(np.array([8]), np.array([0.0]))
        assert list(g) == [0]

    def test_zero_runtimes_group_together(self):
        g = config_groups_for_user(np.ones(4, dtype=int), np.zeros(4))
        assert list(g) == [0, 0, 0, 0]


def _repetition_by_mask_scan(trace, max_k=10, n_users=20, min_jobs=30):
    """Fig 8 curve selecting each user's rows with a full-length mask."""
    users = trace["user_id"]
    uniq, counts = np.unique(users, return_counts=True)
    eligible = uniq[counts >= min_jobs]
    if len(eligible) == 0:
        eligible = uniq
    chosen = eligible[np.argsort(-counts[np.isin(uniq, eligible)])][:n_users]
    curves = []
    for u in chosen:
        mask = users == u
        groups = _config_groups_numpy_scalars(
            trace["cores"][mask], trace["runtime"][mask]
        )
        sizes = np.sort(np.unique(groups, return_counts=True)[1])[::-1]
        cum = np.cumsum(sizes) / sizes.sum()
        padded = np.ones(max_k)
        padded[: min(max_k, len(cum))] = cum[:max_k]
        curves.append(padded)
    return np.mean(curves, axis=0), len(chosen)


class TestRepetition:
    @pytest.mark.parametrize("system", ["philly", "mira"])
    def test_stable_grouping_matches_mask_scan(self, system):
        tr = generate_trace(system, days=3, seed=5)
        curve, n_users = _repetition_by_mask_scan(tr)
        s = repetition_summary(tr)
        assert s.n_users == n_users
        assert np.array_equal(s.cumulative_share, curve)

    def test_empty_trace(self):
        tr = Trace(
            system=PHILLY,
            jobs=Frame({"submit_time": [], "runtime": [], "cores": []}),
        )
        with pytest.warns(RuntimeWarning):
            s = repetition_summary(tr)
        assert s.n_users == 0

    def test_single_config_user_repeats_fully(self):
        tr = Trace(
            system=PHILLY,
            jobs=Frame(
                {
                    "submit_time": np.arange(50.0),
                    "runtime": np.full(50, 100.0),
                    "cores": np.full(50, 2),
                    "user_id": np.zeros(50, dtype=np.int64),
                }
            ),
        )
        s = repetition_summary(tr, min_jobs=10)
        assert s.top(1) == pytest.approx(1.0)

    def test_curve_monotone_and_bounded(self):
        tr = generate_trace("philly", days=2, seed=1)
        s = repetition_summary(tr)
        assert np.all(np.diff(s.cumulative_share) >= -1e-12)
        assert s.cumulative_share[-1] <= 1.0 + 1e-12
        assert s.top(10) >= s.top(3) >= s.top(1) > 0

    def test_hpc_more_repetitive_than_dl(self):
        hpc = repetition_summary(generate_trace("mira", days=8, seed=3))
        dl = repetition_summary(generate_trace("philly", days=8, seed=3))
        assert hpc.top(3) > dl.top(3)


def _awkward_user_trace(seed, n=3000):
    """Unknown (-1) and sparse user ids, and tied job counts at the top."""
    rng = np.random.default_rng(seed)
    ids = np.array([-1, 0, 7, 10**9, 2**40, 123_456_789, 3], dtype=np.int64)
    # two pairs of ids share a count, so the heaviest-first order has ties
    sizes = np.array([600, 600, 400, 400, 300, 50, 20])
    users = rng.permutation(np.repeat(ids, sizes))
    tail = rng.integers(-1, 5 * 10**8, n - len(users))
    users = np.concatenate([users, tail])
    m = len(users)
    return Trace(
        system=PHILLY,
        jobs=Frame(
            {
                "submit_time": np.arange(m, dtype=float),
                "runtime": rng.choice([60.0, 61.0, 65.0, 600.0, 3600.0], m)
                * rng.uniform(0.97, 1.03, m),
                "cores": rng.choice([1, 2, 8], m),
                "user_id": users,
                "status": rng.integers(0, 3, m),
            }
        ),
    )


def _status_profiles_by_mask(trace, n_users):
    """Fig 11 panels selecting rows with full-length masks per status."""
    users = trace["user_id"]
    uniq, counts = np.unique(users, return_counts=True)
    out = []
    for u in uniq[np.argsort(-counts)][:n_users]:
        mask = users == u
        violins = {
            status.label: violin_summary(
                trace["runtime"][mask & (trace["status"] == int(status))]
            ).as_dict()
            for status in JobStatus
        }
        out.append((int(u), int(mask.sum()), violins))
    return out


class TestUserSelectionKernels:
    """Fig 8 and Fig 11 pick the same users and rows as full-length masks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_jobs", [30, 10**6])
    def test_repetition_matches_mask_scan(self, seed, min_jobs):
        tr = _awkward_user_trace(seed)
        curve, n_users = _repetition_by_mask_scan(tr, min_jobs=min_jobs)
        s = repetition_summary(tr, min_jobs=min_jobs)
        assert s.n_users == n_users
        assert s.cumulative_share.tobytes() == curve.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_status_profiles_match_masks(self, seed):
        tr = _awkward_user_trace(seed)
        got = [
            (p.user, p.n_jobs, {k: v.as_dict() for k, v in p.violins.items()})
            for p in top_user_status_profiles(tr, n_users=5)
        ]
        expected = _status_profiles_by_mask(tr, 5)
        assert [u for u, _, _ in got] == [u for u, _, _ in expected]
        np.testing.assert_equal(got, expected)


class TestQueueConditioned:
    def test_mix_rows_sum_to_one(self):
        tr = generate_trace("philly", days=3, seed=2)
        for mix in (size_vs_queue(tr), runtime_vs_queue(tr)):
            for q in range(3):
                row = mix.mix[q]
                if not np.isnan(row).any():
                    assert row.sum() == pytest.approx(1.0)

    def test_kinds(self):
        tr = generate_trace("helios", days=0.5, seed=2)
        assert size_vs_queue(tr).kind == "size"
        assert runtime_vs_queue(tr).kind == "runtime"

    def test_dl_minimal_grows_with_queue(self):
        tr = generate_trace("philly", days=6, seed=0)
        mf = size_vs_queue(tr).minimal_fraction()
        valid = mf[~np.isnan(mf)]
        assert valid[-1] > valid[0]  # the Fig 9 trend

    def test_thresholds_ordered(self):
        tr = generate_trace("theta", days=3, seed=2)
        mix = size_vs_queue(tr)
        t1, t2 = mix.thresholds
        assert 0 <= t1 <= t2


class TestUserStatusProfiles:
    def test_top_users_by_job_count(self):
        tr = generate_trace("philly", days=3, seed=4)
        profiles = top_user_status_profiles(tr, n_users=3)
        assert len(profiles) == 3
        counts = [p.n_jobs for p in profiles]
        assert counts == sorted(counts, reverse=True)

    def test_violin_keys(self):
        tr = generate_trace("theta", days=3, seed=4)
        p = top_user_status_profiles(tr, n_users=1)[0]
        assert set(p.violins) == {"Passed", "Failed", "Killed"}

    def test_separation_non_negative(self):
        tr = generate_trace("helios", days=0.5, seed=4)
        for p in top_user_status_profiles(tr, n_users=3):
            assert p.separation() >= 0.0
