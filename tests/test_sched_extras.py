"""Tests for fairshare scheduling and node packing."""

import numpy as np
import pytest

from repro.sched import (
    NO_BACKFILL,
    FairSharePolicy,
    NodeCluster,
    SimWorkload,
    get_policy,
    simulate,
    simulate_packed,
)


def wl(submit, cores, runtime, user=None):
    submit = np.asarray(submit, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=np.asarray(cores, dtype=np.int64),
        runtime=runtime,
        walltime=runtime.copy(),
        user=np.asarray(user, dtype=np.int64)
        if user is not None
        else np.zeros(len(submit), dtype=np.int64),
    )


class TestFairShare:
    def test_registered(self):
        assert isinstance(get_policy("fairshare"), FairSharePolicy)

    def test_promotes_light_user(self):
        heavy = wl(
            submit=[0, 0, 0, 0, 1],
            cores=[4, 4, 4, 4, 4],
            runtime=[100] * 5,
            user=[0, 0, 0, 0, 1],
        )
        fcfs = simulate(heavy, 4, "fcfs")
        fair = simulate(heavy, 4, "fairshare")
        assert fair.start[4] < fcfs.start[4]

    def test_equal_usage_falls_back_to_fcfs(self):
        workload = wl([0, 1, 2], [4, 4, 4], [10, 10, 10], user=[0, 1, 2])
        res = simulate(workload, 4, "fairshare")
        assert list(np.argsort(res.start)) == [0, 1, 2]

    def test_usage_decays(self):
        # user 0's early usage is ancient history by the time user 0 and 1
        # compete again -> FCFS order wins
        policy = FairSharePolicy(half_life_hours=0.001)  # ~instant decay
        workload = wl(
            submit=[0, 50_000, 50_000.5],
            cores=[4, 4, 4],
            runtime=[100, 100, 100],
            user=[0, 0, 1],
        )
        res = simulate(workload, 4, policy)
        # with decayed usage, submission order decides: job1 before job2
        assert res.start[1] < res.start[2]

    def test_half_life_validation(self):
        with pytest.raises(ValueError):
            FairSharePolicy(half_life_hours=0.0)


class TestNodeCluster:
    def test_single_node_fit(self):
        c = NodeCluster(n_nodes=2, gpus_per_node=8)
        assert c.can_place(8)
        c.place(0, 5)
        assert c.free_per_node.sum() == 11
        assert c.can_place(8)  # the second node is still empty
        c.place(1, 8)
        assert not c.can_place(4)  # 3 free on node 0 only
        assert c.can_place(3)

    def test_small_job_must_fit_one_node(self):
        c = NodeCluster(n_nodes=2, gpus_per_node=8)
        c.place(0, 5)
        c.place(1, 5)
        # 6 GPUs free in total but max 3 contiguous -> a 4-GPU job can't run
        assert c.free_per_node.sum() == 6
        assert not c.can_place(4)

    def test_large_job_needs_empty_nodes(self):
        c = NodeCluster(n_nodes=3, gpus_per_node=8)
        c.place(0, 1)
        assert not c.can_place(24)  # would need 3 empty nodes
        assert c.can_place(16)

    def test_best_fit_packing(self):
        c = NodeCluster(n_nodes=2, gpus_per_node=8)
        c.place(0, 6)   # node A: 2 free
        c.place(1, 2)   # best fit -> lands on node A, keeping B empty
        assert c.can_place(8)

    def test_release_restores(self):
        c = NodeCluster(n_nodes=1, gpus_per_node=8)
        c.place(0, 8)
        assert not c.can_place(1)
        c.release(0)
        assert c.can_place(8)

    def test_fragmented_gpus(self):
        c = NodeCluster(n_nodes=2, gpus_per_node=8)
        c.place(0, 5)
        c.place(1, 5)
        # both nodes have 3 free; all 6 unusable for an 8-GPU probe
        assert c.fragmented_gpus(8) == 6
        assert c.fragmented_gpus(2) == 0

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            NodeCluster(0, 8)


class TestPackedSimulation:
    def test_packing_can_delay_vs_flat(self):
        # two 5-GPU jobs fill two 8-GPU nodes; a 4-GPU job fits in the flat
        # pool (6 free) but not under packing
        workload = wl([0, 0, 1], [5, 5, 4], [100, 100, 10])
        packed = simulate_packed(workload, n_nodes=2, gpus_per_node=8)
        flat = simulate(workload, 16, "fcfs", NO_BACKFILL)
        assert flat.start[2] == 1.0
        assert packed.start[2] == 100.0

    def test_whole_node_jobs(self):
        workload = wl([0, 0], [16, 8], [50, 50])
        packed = simulate_packed(workload, n_nodes=3, gpus_per_node=8)
        assert list(packed.start) == [0.0, 0.0]

    def test_fragmentation_sampled(self):
        workload = wl([0, 0], [5, 5], [100, 100])
        packed = simulate_packed(workload, n_nodes=2, gpus_per_node=8)
        assert packed.mean_fragmentation > 0

    def test_too_large_job(self):
        with pytest.raises(ValueError):
            simulate_packed(wl([0], [17], [10]), n_nodes=2, gpus_per_node=8)

