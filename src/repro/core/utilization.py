"""System utilization over time (paper §III-B, Fig 3).

Utilization is reconstructed from observed allocations: each job occupies
``cores`` units over ``[submit+wait, submit+wait+runtime)``.  The timeline
is computed with a single event sweep (sorted deltas + cumulative sum), then
integrated per bucket — no per-tick scanning.

Two facts keep the sweep's result exact while it takes shortcuts:

* *Tie order cannot change a level.*  Cores are integers, so every prefix
  sum of the ±cores deltas is an integer well below 2**53 and float64
  holds it exactly, whatever order the events of one instant are added
  in.  The level in effect after an instant — the prefix sum at the last
  event of its tie run — is therefore the same under any sort, and the
  sweep sorts once, unstably.  (``Trace`` stores ``cores`` as int64.)
* *The bucket sums stay sequential.*  A bucket's integral is the running
  sum, from 0.0 and in time order, of its segments' level × width
  (``np.cumsum`` over the bucket's contiguous run of segments).  A
  pairwise or blocked reduction (``np.sum``, ``np.add.reduceat``) rounds
  in a different order and changes the bits.

Blue Waters is hybrid: jobs tagged ``pool == 1`` run on the GPU partition
and are reported as a separate series, matching the paper's split plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.schema import Trace
from ..traces.systems import ResourceKind

__all__ = ["UtilizationSeries", "utilization_timeline", "analyze_utilization"]


@dataclass(frozen=True)
class UtilizationSeries:
    """Utilization timeline of one resource pool."""

    system: str
    pool: str  # "cpu", "gpu", or "all"
    capacity: int
    bucket_edges: np.ndarray
    #: mean utilization (0..1) within each bucket
    values: np.ndarray

    @property
    def average(self) -> float:
        """Time-weighted average utilization."""
        widths = np.diff(self.bucket_edges)
        if widths.sum() == 0:
            return 0.0
        return float(np.average(self.values, weights=widths))


def _busy_integral(
    start: np.ndarray, end: np.ndarray, cores: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Integral of allocated (integer) cores over each bucket, via an event
    sweep; the exactness argument is in the module docstring."""
    # allocation delta events: +cores at start, -cores at end, in time order
    times = np.concatenate([start, end])
    order = np.argsort(times)
    times = times[order]
    level = np.concatenate([cores, -cores])[order]
    del order
    np.cumsum(level, out=level)  # allocated cores after each event

    # one (time, level) per distinct instant: the last event of its tie run
    tie = times[1:] == times[:-1]
    if tie.any():
        keep = np.ones(len(times), dtype=bool)
        np.logical_not(tie, out=keep[:-1])
        times, level = times[keep], level[keep]
        del keep
    del tie

    # breakpoints: the instants inside the window with the bucket edges
    # merged in; an edge carries the level of the last instant before it
    lo = np.searchsorted(times, edges[0], side="left")
    hi = np.searchsorted(times, edges[-1], side="right")
    before = level[lo - 1] if lo > 0 else 0.0
    times, level = times[lo:hi], level[lo:hi]
    pos = np.searchsorted(times, edges)
    new = np.ones(len(edges), dtype=bool)
    inside = pos < len(times)
    new[inside] = times[pos[inside]] != edges[inside]
    pos = pos[new]
    edge_level = np.full(len(pos), before)
    after_first = pos > 0
    edge_level[after_first] = level[pos[after_first] - 1]
    breaks = np.insert(times, pos, edges[new])
    level = np.insert(level, pos, edge_level)
    del times

    # level * width of each segment [breaks[i], breaks[i+1]); a bucket's
    # segments are the contiguous run between its two edges, summed
    # sequentially (0.0 + cumsum[-1] equals the running sum started at
    # 0.0, signed zeros included)
    level = level[:-1]
    level *= np.diff(breaks)
    bounds = np.searchsorted(breaks, edges)
    out = np.zeros(len(edges) - 1)
    for b, (i, j) in enumerate(zip(bounds[:-1], bounds[1:])):
        if j > i:
            out[b] += np.cumsum(level[i:j])[-1]
    return out


def utilization_timeline(
    trace: Trace,
    n_buckets: int = 100,
    mask: np.ndarray | None = None,
    capacity: int | None = None,
    pool_name: str = "all",
) -> UtilizationSeries:
    """Bucketed utilization series for (a subset of) a trace."""
    jobs = trace.jobs
    if mask is None:
        mask = slice(None)  # views of the columns, not masked copies
    start = jobs["submit_time"][mask] + jobs["wait_time"][mask]
    end = start + jobs["runtime"][mask]
    cores = jobs["cores"][mask].astype(float)
    cap = capacity if capacity is not None else trace.system.schedulable_units

    # bucket over the trace's submission window (as the paper's Fig 3 does);
    # allocations extending past the window count only inside it
    t0 = float(jobs["submit_time"].min())
    t1 = float(jobs["submit_time"].max())
    if t1 <= t0:
        t1 = t0 + 1.0
    edges = np.linspace(t0, t1, n_buckets + 1)
    busy = _busy_integral(start, end, cores, edges)
    widths = np.diff(edges)
    with np.errstate(invalid="ignore", divide="ignore"):
        util = np.where(widths > 0, busy / (widths * cap), 0.0)
    return UtilizationSeries(
        system=trace.system.name,
        pool=pool_name,
        capacity=cap,
        bucket_edges=edges,
        values=np.minimum(util, 1.0),
    )


def analyze_utilization(trace: Trace, n_buckets: int = 100) -> list[UtilizationSeries]:
    """Fig 3 series for one system (two series for the hybrid Blue Waters)."""
    system = trace.system
    if system.resource is ResourceKind.HYBRID and "pool" in trace.jobs:
        gpu_mask = trace.jobs["pool"] == 1
        # GPU nodes on Blue Waters: one 16-core CPU + 1 GPU each; the GPU
        # partition's schedulable cores are gpus * 16
        gpu_capacity = max(system.gpus * 16, 1)
        cpu_capacity = system.cores
        return [
            utilization_timeline(
                trace, n_buckets, ~gpu_mask, cpu_capacity, "cpu"
            ),
            utilization_timeline(
                trace, n_buckets, gpu_mask, gpu_capacity, "gpu"
            ),
        ]
    pool = "gpu" if system.resource is ResourceKind.GPU else "cpu"
    return [utilization_timeline(trace, n_buckets, pool_name=pool)]
