"""Tests for scheduler extensions: conservative backfilling, walltime
kills, virtual clusters, predictive backfilling."""

import numpy as np
import pytest

from repro.sched import (
    SimWorkload,
    compute_metrics,
    simulate,
    simulate_conservative,
    simulate_virtual_clusters,
    simulate_with_predictions,
    workload_from_trace,
)
from repro.sched.virtual import isolation_cost
from repro.traces.synth import generate_trace


def wl(submit, cores, runtime, walltime=None):
    submit = np.asarray(submit, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=np.asarray(cores, dtype=np.int64),
        runtime=runtime,
        walltime=np.asarray(walltime, dtype=float)
        if walltime is not None
        else runtime,
        user=np.zeros(len(submit), dtype=np.int64),
    )


class TestConservative:
    def test_backfills_into_hole(self):
        # j0 holds 4/5; j1 (head, 5 cores) reserved at t=100; j2 (1 core,
        # 10s) fits the hole without moving j1
        workload = wl(
            submit=[0, 1, 2],
            cores=[4, 5, 1],
            runtime=[100, 50, 10],
        )
        res = simulate_conservative(workload, capacity=5)
        assert res.start[2] == 2.0
        assert res.start[1] == 100.0

    def test_never_delays_any_reservation(self):
        # j2 is long: conservative must NOT backfill it over j1's reservation
        workload = wl(
            submit=[0, 1, 2],
            cores=[4, 5, 1],
            runtime=[100, 50, 500],
        )
        res = simulate_conservative(workload, capacity=5)
        assert res.start[1] == 100.0

    def test_reservations_wait_out_a_dip(self):
        # free cores: 4 until j1 ends at 50, 7 until j0 ends at 80, then 10.
        # j2 (5 cores) is promised 50 and holds [50, 60); j3 (4 cores,
        # 60s) fits before 50 but not across j2's dip, so it waits for 60
        workload = wl(
            submit=[0, 0, 1, 2],
            cores=[3, 3, 5, 4],
            runtime=[80, 50, 10, 60],
        )
        res = simulate_conservative(workload, capacity=10)
        assert res.start.tolist() == [0.0, 0.0, 50.0, 60.0]
        assert res.promised.tolist() == [0.0, 0.0, 50.0, 60.0]

    def test_job_too_large_raises(self):
        with pytest.raises(ValueError, match="larger than"):
            simulate_conservative(wl([0], [8], [10]), capacity=4)

    def test_matches_easy_when_unconstrained(self):
        workload = wl([0, 10, 20], [1, 1, 1], [5, 5, 5])
        res = simulate_conservative(workload, capacity=4)
        assert np.allclose(res.start, workload.submit)

    def test_all_jobs_complete_on_random_workload(self):
        tr = generate_trace("theta", days=1.5, seed=8)
        workload = workload_from_trace(tr)
        res = simulate_conservative(workload, tr.system.schedulable_units)
        assert np.all(res.start >= workload.submit)
        m = compute_metrics(res)
        assert 0 < m.util <= 1.0

    def test_promises_never_exceeded(self):
        # conservative reservations are firm: start <= first promise
        tr = generate_trace("theta", days=1.0, seed=9)
        workload = workload_from_trace(tr)
        res = simulate_conservative(workload, tr.system.schedulable_units)
        promised = res.promised[np.isfinite(res.promised)]
        started = res.start[np.isfinite(res.promised)]
        assert np.all(started <= promised + 1e-6)


class TestWalltimeKills:
    def test_kill_truncates_runtime(self):
        workload = wl([0], [1], [100], walltime=[100])
        workload.walltime = np.array([40.0])  # underestimate
        res = simulate(workload, capacity=4, kill_at_walltime=True)
        assert res.workload.runtime[0] == 40.0

    def test_no_kill_when_walltime_covers(self):
        workload = wl([0], [1], [100], walltime=[200])
        res = simulate(workload, capacity=4, kill_at_walltime=True)
        assert res.workload.runtime[0] == 100.0


class TestVirtualClusters:
    @pytest.fixture(scope="class")
    def philly(self):
        return generate_trace("philly", days=4, seed=3)

    def test_partitioned_waits_at_least_pooled(self, philly):
        result = simulate_virtual_clusters(philly, max_jobs=3000)
        assert result.combined.wait >= result.pooled.wait - 1e-9
        assert result.wait_inflation() >= 1.0 or result.pooled.wait == 0

    def test_per_vc_results_cover_all_jobs(self, philly):
        result = simulate_virtual_clusters(philly, max_jobs=3000)
        assert sum(m.n_jobs for m in result.per_vc.values()) == 3000

    def test_isolation_cost_keys(self, philly):
        cost = isolation_cost(simulate_virtual_clusters(philly, max_jobs=1500))
        assert {"wait_partitioned", "wait_pooled", "wait_inflation"} <= set(cost)

    def test_requires_vc_structure(self):
        tr = generate_trace("theta", days=0.5, seed=1)
        with pytest.raises(ValueError, match="virtual-cluster"):
            simulate_virtual_clusters(tr)


class TestPredictive:
    @pytest.fixture(scope="class")
    def outcomes(self):
        tr = generate_trace("theta", days=4, seed=6)
        return simulate_with_predictions(tr, model="lr", max_jobs=1500)

    def test_three_sources(self, outcomes):
        assert set(outcomes) == {"user", "predicted", "oracle"}

    def test_oracle_never_kills(self, outcomes):
        assert outcomes["oracle"].killed_fraction == 0.0
        assert outcomes["oracle"].mean_overestimate == pytest.approx(1.0)

    def test_user_walltimes_never_kill(self, outcomes):
        # HPC traces carry walltimes >= runtime by construction
        assert outcomes["user"].killed_fraction == 0.0

    def test_predictions_overestimate_less_than_users(self, outcomes):
        assert (
            outcomes["predicted"].mean_overestimate
            < outcomes["user"].mean_overestimate
        )

    def test_too_small_rejected(self):
        tr = generate_trace("theta", days=0.5, seed=1, jobs_per_day=60)
        with pytest.raises(ValueError, match="too small"):
            simulate_with_predictions(tr, max_jobs=25)
