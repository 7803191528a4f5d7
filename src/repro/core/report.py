"""Markdown report generation for a cross-system study.

``write_report`` renders every analysis of a :class:`CrossSystemStudy` into
one self-contained markdown document — the reproduction's equivalent of the
paper's §III-V narrative, regenerated from whatever traces the study holds
(synthetic or real SWF imports).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..traces.categorize import LENGTH_LABELS, SIZE_LABELS
from ..viz import percent
from .study import CrossSystemStudy

__all__ = ["build_report", "write_report"]


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _sec(x: float) -> str:
    if not np.isfinite(x):
        return "-"
    if x < 60:
        return f"{x:.0f}s"
    if x < 3600:
        return f"{x / 60:.0f}m"
    if x < 86400:
        return f"{x / 3600:.1f}h"
    return f"{x / 86400:.1f}d"


def build_report(study: CrossSystemStudy, title: str | None = None) -> str:
    """Render the full cross-system characterization as markdown."""
    parts: list[str] = []
    parts.append(f"# {title or 'Cross-system job characterization report'}")
    parts.append(
        "Generated by `repro` (IPPS'24 reproduction). Systems: "
        + ", ".join(study.systems())
        + "."
    )

    # --- traces ------------------------------------------------------------
    parts.append("## Traces")
    parts.append(
        _md_table(
            ["system", "jobs", "capacity", "window (days)"],
            [
                [
                    name,
                    f"{t.num_jobs:,}",
                    f"{t.system.schedulable_units:,}",
                    f"{t.span_seconds / 86400:.1f}",
                ]
                for name, t in study.traces.items()
            ],
        )
    )

    # --- geometries ----------------------------------------------------------
    parts.append("## Job geometries (Fig 1)")
    geometry = study.geometry()
    parts.append(
        _md_table(
            [
                "system",
                "median runtime",
                "median arrival gap",
                "1-unit jobs",
                "median cores",
                "diurnal max/min",
            ],
            [
                [
                    name,
                    _sec(g.runtime.median),
                    _sec(g.arrival.median_interval),
                    percent(g.allocation.single_unit_fraction),
                    f"{g.allocation.median_cores:.0f}",
                    "-"
                    if not np.isfinite(g.arrival.peak_ratio)
                    else f"{g.arrival.peak_ratio:.1f}x",
                ]
                for name, g in geometry.items()
            ],
        )
    )

    # --- core hours ---------------------------------------------------------
    parts.append("## Core-hour domination (Fig 2)")
    rows = []
    for name, s in study.core_hours().items():
        rows.append(
            [name]
            + [percent(v) for v in s.by_size]
            + [percent(v) for v in s.by_length]
        )
    parts.append(
        _md_table(
            ["system"]
            + [f"size {l}" for l in SIZE_LABELS]
            + [f"len {l}" for l in LENGTH_LABELS],
            rows,
        )
    )

    # --- utilization ----------------------------------------------------------
    parts.append("## Utilization (Fig 3)")
    rows = []
    for name, series_list in study.utilization(n_buckets=50).items():
        for series in series_list:
            rows.append([f"{name}/{series.pool}", percent(series.average)])
    parts.append(_md_table(["system/pool", "average utilization"], rows))

    # --- waits -----------------------------------------------------------------
    parts.append("## Waiting time (Fig 4, 5)")
    waits = study.waiting()
    by_class = study.waiting_by_class()
    rows = []
    for name in study.systems():
        w, c = waits[name], by_class[name]
        rows.append(
            [
                name,
                _sec(w.median_wait),
                _sec(w.mean_wait),
                SIZE_LABELS[c.longest_waiting_size()],
                LENGTH_LABELS[c.longest_waiting_length()],
            ]
        )
    parts.append(
        _md_table(
            ["system", "median wait", "mean wait", "slowest size", "slowest length"],
            rows,
        )
    )

    # --- failures ---------------------------------------------------------------
    parts.append("## Failures (Fig 6, 7)")
    failures = study.failures()
    rows = [
        [
            name,
            percent(s.count_shares[0]),
            percent(s.count_shares[1]),
            percent(s.count_shares[2]),
            percent(s.wasted_core_hour_share),
        ]
        for name, s in failures.items()
    ]
    parts.append(
        _md_table(
            ["system", "passed", "failed", "killed", "core-hours wasted"],
            rows,
        )
    )

    # --- users ---------------------------------------------------------------------
    parts.append("## User behaviour (Fig 8-10)")
    reps = study.repetition()
    sizes_q = study.size_vs_queue()
    rows = []
    for name in study.systems():
        mf = sizes_q[name].minimal_fraction()
        valid = mf[np.isfinite(mf)]
        trend = (
            "grows"
            if len(valid) >= 2 and valid[-1] > valid[0]
            else "flat/noisy"
        )
        rows.append(
            [
                name,
                percent(reps[name].top(3)),
                percent(reps[name].top(10)),
                trend,
            ]
        )
    parts.append(
        _md_table(
            ["system", "top-3 config share", "top-10 config share",
             "minimal jobs vs queue"],
            rows,
        )
    )

    # --- takeaways ---------------------------------------------------------------
    parts.append("## Takeaways")
    for t in study.takeaways():
        flag = "**HOLDS**" if t.holds else "**DOES NOT HOLD**"
        parts.append(f"- Takeaway {t.number}: {t.title} — {flag}")

    return "\n\n".join(parts) + "\n"


def write_report(
    study: CrossSystemStudy, path: str | Path, title: str | None = None
) -> Path:
    """Write the markdown report to ``path`` and return it."""
    path = Path(path)
    path.write_text(build_report(study, title))
    return path
