"""Node-level cluster model with GPU packing constraints.

The flat core-pool model treats all units as interchangeable, but real DL
clusters allocate GPUs *within nodes* (Philly: 8 GPUs/node) and many
frameworks require an allocation to fit on as few nodes as possible.  This
module adds a node-granular cluster and a packing-aware simulator so the
fragmentation effect — free GPUs that no multi-GPU job can use — becomes
measurable, the mechanism behind part of the paper's Fig 3 DL-utilization
observations (and the subject of the excluded Alibaba trace's paper,
"Beware of Fragmentation").

Packing rule (first-fit decreasing, the common default):

* a job of ``g <= gpus_per_node`` GPUs must fit inside ONE node;
* a larger job takes whole nodes (ceil(g / gpus_per_node)), mixing with
  nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .job import SimWorkload

__all__ = ["NodeCluster", "PackedSimResult", "simulate_packed"]


class NodeCluster:
    """Nodes of equal GPU count; allocations respect node boundaries."""

    __slots__ = ("n_nodes", "gpus_per_node", "free_per_node", "_alloc")

    def __init__(self, n_nodes: int, gpus_per_node: int) -> None:
        if n_nodes <= 0 or gpus_per_node <= 0:
            raise ValueError("need positive node and GPU counts")
        self.n_nodes = n_nodes
        self.gpus_per_node = gpus_per_node
        self.free_per_node = np.full(n_nodes, gpus_per_node, dtype=np.int64)
        # job -> list of (node, gpus) it holds
        self._alloc: dict[int, list[tuple[int, int]]] = {}

    @property
    def capacity(self) -> int:
        """Total GPUs."""
        return self.n_nodes * self.gpus_per_node

    def can_place(self, gpus: int) -> bool:
        """Whether a job of ``gpus`` can start under the packing rule."""
        if gpus <= self.gpus_per_node:
            return bool(np.any(self.free_per_node >= gpus))
        whole = int(np.ceil(gpus / self.gpus_per_node))
        return int(np.sum(self.free_per_node == self.gpus_per_node)) >= whole

    def place(self, job: int, gpus: int) -> None:
        """Allocate under first-fit-decreasing; raises if impossible."""
        if gpus <= self.gpus_per_node:
            # tightest fit: the fullest node that still fits (best-fit
            # reduces future fragmentation)
            candidates = np.flatnonzero(self.free_per_node >= gpus)
            if len(candidates) == 0:
                raise RuntimeError("no node fits the allocation")
            node = int(candidates[np.argmin(self.free_per_node[candidates])])
            self.free_per_node[node] -= gpus
            self._alloc[job] = [(node, gpus)]
            return
        whole = int(np.ceil(gpus / self.gpus_per_node))
        empty = np.flatnonzero(self.free_per_node == self.gpus_per_node)
        if len(empty) < whole:
            raise RuntimeError("not enough empty nodes")
        taken = []
        remaining = gpus
        for node in empty[:whole]:
            g = min(self.gpus_per_node, remaining)
            self.free_per_node[node] -= g
            taken.append((int(node), g))
            remaining -= g
        self._alloc[job] = taken

    def release(self, job: int) -> None:
        """Free a job's GPUs."""
        for node, gpus in self._alloc.pop(job):
            self.free_per_node[node] += gpus
        if np.any(self.free_per_node > self.gpus_per_node):
            raise RuntimeError("released more than allocated")

    def fragmented_gpus(self, probe: int) -> int:
        """Free GPUs unusable by a ``probe``-GPU single-node job."""
        free = self.free_per_node
        return int(free[free < min(probe, self.gpus_per_node)].sum())


@dataclass
class PackedSimResult:
    """Outcome of a packing-aware simulation."""

    workload: SimWorkload
    n_nodes: int
    gpus_per_node: int
    start: np.ndarray
    #: (time, fragmented GPUs for an 8-GPU probe) samples
    frag_times: np.ndarray
    frag_values: np.ndarray

    @property
    def wait(self) -> np.ndarray:
        """Per-job waits."""
        return self.start - self.workload.submit

    @property
    def mean_fragmentation(self) -> float:
        """Average unusable-GPU count across samples."""
        return float(self.frag_values.mean()) if len(self.frag_values) else 0.0


def simulate_packed(
    workload: SimWorkload,
    n_nodes: int,
    gpus_per_node: int = 8,
    probe: int | None = None,
) -> PackedSimResult:
    """FCFS scheduling with node-packing constraints (no backfilling).

    Blocked heads block the queue (head-of-line), making the fragmentation
    cost visible; compare waits against the flat-pool simulator on the same
    workload to isolate the packing penalty.
    """
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    cluster = NodeCluster(n_nodes, gpus_per_node)
    if int(workload.cores.max()) > cluster.capacity:
        raise ValueError("job larger than the cluster")
    probe = probe if probe is not None else gpus_per_node

    submit = workload.submit
    cores = workload.cores
    runtime = workload.runtime
    start = np.full(n, -1.0)
    pending: list[int] = []
    finish_heap: list[tuple[float, int]] = []
    next_submit = 0
    frag_t: list[float] = []
    frag_v: list[int] = []
    INF = float("inf")

    def schedule(now: float) -> None:
        while pending:
            j = pending[0]
            if not cluster.can_place(int(cores[j])):
                break
            cluster.place(j, int(cores[j]))
            start[j] = now
            heapq.heappush(finish_heap, (now + runtime[j], j))
            pending.pop(0)
        frag_t.append(now)
        frag_v.append(cluster.fragmented_gpus(probe))

    while next_submit < n or finish_heap:
        t_sub = submit[next_submit] if next_submit < n else INF
        t_fin = finish_heap[0][0] if finish_heap else INF
        now = min(t_sub, t_fin)
        while finish_heap and finish_heap[0][0] <= now:
            _, j = heapq.heappop(finish_heap)
            cluster.release(j)
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            next_submit += 1
        schedule(now)

    assert not pending and np.all(start >= 0)
    return PackedSimResult(
        workload=workload,
        n_nodes=n_nodes,
        gpus_per_node=gpus_per_node,
        start=start,
        frag_times=np.asarray(frag_t),
        frag_values=np.asarray(frag_v),
    )
