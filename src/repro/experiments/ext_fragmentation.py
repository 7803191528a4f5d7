"""Extension: GPU fragmentation under node-packing constraints.

The flat GPU-pool model in the paper's simulator ignores node boundaries;
real DL clusters (Philly: 8 GPUs/node) cannot give a 4-GPU job two halves
of two different nodes.  This experiment replays the Philly workload on a
node-granular cluster at several sizes and quantifies (a) the wait penalty
of packing vs a flat pool and (b) how many free GPUs are unusable to an
8-GPU job at any instant — one mechanism behind the DL clusters' "idle
GPUs while jobs queue" picture (Fig 3 / Takeaway 5).
"""

from __future__ import annotations

from ..sched import NO_BACKFILL, simulate, simulate_packed, workload_from_trace
from ..viz import percent, render_table, seconds
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult, get_traces

__all__ = ["run"]


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    gpus_per_node: int = 8,
    scale_factors: tuple[float, ...] = (1.0, 0.5, 0.25),
    max_jobs: int = 8000,
) -> ExperimentResult:
    """Packed vs flat scheduling of the Philly workload at several sizes."""
    traces = get_traces(days, seed)
    trace = traces["philly"]
    workload = workload_from_trace(trace).slice(max_jobs)
    full_nodes = trace.system.gpus // gpus_per_node

    result = ExperimentResult(
        exp_id="ext_fragmentation",
        title="Extension: GPU fragmentation under node packing",
    )
    rows = []
    data = {}
    for factor in scale_factors:
        n_nodes = max(int(full_nodes * factor), 1)
        capacity = n_nodes * gpus_per_node
        if int(workload.cores.max()) > capacity:
            continue
        packed = simulate_packed(workload, n_nodes, gpus_per_node)
        flat = simulate(workload, capacity, "fcfs", NO_BACKFILL)
        packed_wait = float(packed.wait.mean())
        flat_wait = float((flat.start - workload.submit).mean())
        rows.append(
            [
                f"{n_nodes} nodes ({capacity} GPUs)",
                seconds(flat_wait),
                seconds(packed_wait),
                f"{packed_wait / flat_wait:.2f}x" if flat_wait > 0 else "-",
                f"{packed.mean_fragmentation:.1f}",
                percent(packed.mean_fragmentation / capacity),
            ]
        )
        data[str(factor)] = {
            "flat_wait": flat_wait,
            "packed_wait": packed_wait,
            "mean_fragmented_gpus": packed.mean_fragmentation,
        }
    result.add(
        render_table(
            [
                "cluster",
                "flat-pool wait",
                "packed wait",
                "penalty",
                "frag GPUs",
                "frag share",
            ],
            rows,
            title="Philly workload, FCFS, no backfilling "
            "(fragmented = free GPUs no 8-GPU job can use)",
        )
    )
    result.data = data
    return result
