"""Replay tooling for captured event streams.

Everything here consumes the plain-dict events produced by the tracers
(:mod:`repro.obs.tracer`) — either in memory or parsed back from a JSONL
file — and turns them into the artifacts the observability layer promises:

* :func:`check_events` — the event-stream **audit**: monotone sim-time,
  every ``start`` preceded by its ``submit``, and exact conservation of
  cores through every capacity-changing event (each carries a post-event
  ``free`` field precisely so this check can be bit-exact);
* :func:`utilization_series` — the cluster's used-cores step function
  reconstructed purely from events;
* :func:`render_timeline` — a binned text schedule timeline (utilization
  bar plus per-bin event counts), the ``ext_observability`` experiment's
  main artifact;
* :func:`summarize_events` — event counts per kind.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..viz import bar, render_table, seconds
from . import events as ev

__all__ = [
    "summarize_events",
    "check_events",
    "utilization_series",
    "render_timeline",
]


def summarize_events(events: Iterable[dict]) -> dict[str, int]:
    """Event count per kind (insertion-ordered by first occurrence)."""
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def check_events(
    events: Sequence[dict], capacity: int | None = None
) -> list[str]:
    """Audit an event stream; returns violation messages (empty = clean).

    Checks, in one pass:

    * timestamps are monotone non-decreasing;
    * every ``start`` names a job that already emitted ``submit`` (retried
      jobs re-submit via ``retry`` + ``submit``... a second ``start``
      without an intervening release is flagged);
    * cores are conserved: ``start``/``finish`` must move the free count
      by exactly the job's ``cores``, node events must keep it within
      ``[0, capacity]``, and every capacity event's reported ``free``
      must match the replayed ledger.

    ``capacity`` overrides/supplies the cluster size when the stream lost
    its ``run_start`` header (e.g. a saturated ring buffer).
    """
    violations: list[str] = []
    last_t = -np.inf
    submitted: set[int] = set()
    running: dict[int, int] = {}
    free: float | None = None

    def flag(event: dict, message: str) -> None:
        violations.append(f"t={event.get('t')}: {message} ({event})")

    for event in events:
        kind = event.get("kind")
        t = event.get("t")
        if not isinstance(t, (int, float)):
            flag(event, "event without numeric time")
            continue
        if t < last_t:
            flag(event, f"time went backwards ({t} < {last_t})")
        last_t = max(last_t, t)

        if kind == ev.RUN_START:
            if capacity is None:
                capacity = int(event.get("capacity", 0)) or None
            if free is None and capacity is not None:
                free = float(capacity)
        elif kind == ev.SUBMIT:
            submitted.add(event.get("job"))
        elif kind == ev.START:
            job = event.get("job")
            cores = int(event.get("cores", 0))
            if job not in submitted:
                flag(event, f"job {job} started without a submit")
            if job in running:
                flag(event, f"job {job} started while already running")
            running[job] = cores
            if free is not None:
                free -= cores
        elif kind == ev.FINISH:
            job = event.get("job")
            cores = int(event.get("cores", running.get(job, 0)))
            if job not in running:
                flag(event, f"job {job} finished but was not running")
            else:
                if cores != running[job]:
                    flag(event, f"job {job} released {cores} != held {running[job]}")
                del running[job]
            if free is not None:
                free += cores
        elif kind == ev.NODE_FAIL:
            for victim in event.get("victims", []):
                if victim not in running:
                    flag(event, f"node failure killed non-running job {victim}")
                else:
                    del running[victim]
            # capacity shrank by the node's units: adopt the engine ledger
            free = float(event["free"]) if "free" in event else free
            continue  # reported free already adopted; skip the cross-check
        elif kind == ev.NODE_REPAIR:
            free = float(event["free"]) if "free" in event else free
            continue
        elif kind == ev.RETRY:
            job = event.get("job")
            if job in running:
                flag(event, f"job {job} retried while still running")

        if kind in (ev.START, ev.FINISH) and free is not None:
            reported = event.get("free")
            if reported is not None and int(reported) != int(free):
                flag(event, f"free-core ledger mismatch: replayed {free}, engine {reported}")
                free = float(reported)  # re-sync so one bug reports once
            if capacity is not None and not 0 <= free <= capacity:
                flag(event, f"free cores out of range: {free} of {capacity}")

    return violations


def run_start_capacity(
    events: Sequence[dict], capacity: int | None = None
) -> int | None:
    """Resolve cluster capacity: the override wins, else the ``run_start``
    header; ``None`` when neither is available."""
    if capacity is not None:
        return int(capacity)
    for event in events:
        if event.get("kind") == ev.RUN_START:
            return int(event["capacity"])
    return None


def utilization_series(
    events: Sequence[dict], capacity: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(times, used_cores) step function from capacity-carrying events."""
    capacity = run_start_capacity(events, capacity)
    if capacity is None:
        raise ValueError("capacity unknown: no run_start header and no override")
    times: list[float] = []
    used: list[float] = []
    for event in events:
        if event.get("kind") in ev.CAPACITY_EVENTS and "free" in event:
            times.append(float(event["t"]))
            used.append(capacity - float(event["free"]))
    return np.asarray(times), np.asarray(used)


def render_timeline(
    events: Sequence[dict],
    capacity: int | None = None,
    bins: int = 24,
    width: int = 32,
) -> str:
    """Binned text schedule timeline: utilization bar + event counts.

    Utilization per bin is the *time-weighted* mean of the used-cores step
    function, so long idle stretches read as idle no matter how few events
    they contain.
    """
    capacity = run_start_capacity(events, capacity)
    times, used = utilization_series(events, capacity)
    if len(times) == 0:
        return "(no capacity events captured)"
    t0 = float(min(e["t"] for e in events))
    t1 = float(max(e["t"] for e in events))
    span = max(t1 - t0, 1e-9)
    edges = np.linspace(t0, t1, bins + 1)

    # time-weighted mean of the step function per bin
    step_t = np.concatenate([[t0], times, [t1]])
    step_v = np.concatenate([[used[0] if len(used) else 0.0], used])
    util = np.zeros(bins)
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        total = 0.0
        for i in range(len(step_v)):
            seg_lo = max(step_t[i], lo)
            seg_hi = min(step_t[i + 1], hi)
            if seg_hi > seg_lo:
                total += step_v[i] * (seg_hi - seg_lo)
        util[b] = total / max(hi - lo, 1e-9) / capacity

    counted = (ev.SUBMIT, ev.START, ev.FINISH, ev.NODE_FAIL)
    per_bin = {kind: np.zeros(bins, dtype=np.int64) for kind in counted}
    for event in events:
        kind = event.get("kind")
        if kind in per_bin:
            b = min(int((event["t"] - t0) / span * bins), bins - 1)
            per_bin[kind][b] += 1

    rows = []
    for b in range(bins):
        rows.append(
            [
                f"+{seconds(edges[b] - t0)}",
                bar(util[b], width),
                f"{100.0 * util[b]:5.1f}%",
                int(per_bin[ev.SUBMIT][b]),
                int(per_bin[ev.START][b]),
                int(per_bin[ev.FINISH][b]),
                int(per_bin[ev.NODE_FAIL][b]),
            ]
        )
    return render_table(
        ["t", "utilization", "util", "sub", "start", "fin", "fail"],
        rows,
        title=f"schedule timeline ({len(events)} events, "
        f"{seconds(span)} span, capacity {capacity})",
    )
