"""ASCII Gantt / occupancy rendering of simulation results.

``render_gantt`` draws one row per job (start → end bars over a character
grid); ``render_occupancy`` draws the cluster's allocated-core step
function.  Both are debugging aids for scheduler work — small enough for a
terminal, faithful enough to spot backfilling decisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..sched.engine import SimResult

__all__ = ["render_gantt", "render_occupancy"]


def render_gantt(
    result: SimResult, width: int = 72, max_jobs: int = 30
) -> str:
    """One text row per job: queue time (``.``) then run time (``#``)."""
    workload = result.workload
    n = min(workload.n, max_jobs)
    t0 = float(workload.submit.min())
    t1 = float((result.start + workload.runtime).max())
    span = max(t1 - t0, 1e-9)

    def col(t: float) -> int:
        return int((t - t0) / span * (width - 1))

    lines = [
        f"time {t0:.0f} .. {t1:.0f}  ('.' queued, '#' running)",
    ]
    for j in range(n):
        row = [" "] * width
        c_sub = col(workload.submit[j])
        c_start = col(result.start[j])
        c_end = col(result.start[j] + workload.runtime[j])
        for c in range(c_sub, c_start):
            row[c] = "."
        for c in range(c_start, max(c_end, c_start + 1)):
            row[c] = "#"
        lines.append(
            f"j{j:<4d} {int(workload.cores[j]):>6d}c |{''.join(row)}|"
        )
    if workload.n > max_jobs:
        lines.append(f"... ({workload.n - max_jobs} more jobs)")
    return "\n".join(lines)


def render_occupancy(
    result: SimResult, width: int = 72, height: int = 12
) -> str:
    """Allocated cores over time as a block chart."""
    workload = result.workload
    t0 = float(workload.submit.min())
    t1 = float((result.start + workload.runtime).max())
    edges = np.linspace(t0, t1, width + 1)
    # average allocation per column via the event sweep
    times = np.concatenate([result.start, result.start + workload.runtime])
    deltas = np.concatenate([workload.cores, -workload.cores]).astype(float)
    order = np.argsort(times, kind="stable")
    times, deltas = times[order], deltas[order]
    level = np.cumsum(deltas)

    cols = np.zeros(width)
    for i in range(width):
        mid = (edges[i] + edges[i + 1]) / 2
        k = np.searchsorted(times, mid, side="right") - 1
        cols[i] = level[k] if k >= 0 else 0.0

    cap = result.capacity
    lines = [f"allocated cores over time (capacity {cap})"]
    for row in range(height, 0, -1):
        threshold = cap * row / height
        line = "".join("#" if c >= threshold - 1e-9 else " " for c in cols)
        label = f"{int(threshold):>8d} |"
        lines.append(label + line)
    lines.append(" " * 9 + "+" + "-" * width)
    return "\n".join(lines)
