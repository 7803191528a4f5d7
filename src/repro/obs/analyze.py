"""Job-characterization analytics over captured event streams.

The paper's core deliverable is *characterization*: where does a job's
life go (queue wait vs service), which jobs move ahead of the queue
(backfill), how deep does the queue get, how busy is the machine, and
how do users differ.  This module answers those questions from any
event source the obs layer produces — a ``JsonlTracer`` file, a
``RingBufferTracer`` buffer, or a :class:`~repro.obs.columnar.ColumnarRecorder`
recording (live or loaded from ``.npz``) — including fault-engine
traces, whose retries/resubmits and non-``completed`` outcomes are
folded into the per-job lifecycle.

Entry points:

* :func:`load_events` — read a stream from ``.jsonl`` or ``.npz``;
* :func:`analyze_events` — fold a stream into a :class:`TraceAnalysis`;
* ``repro analyze events.jsonl`` / ``events.npz`` — the CLI surface
  (``--json`` for machine-readable output).

Everything is computed in one pass over the stream plus cheap sorts for
the time-weighted percentiles; nothing here needs the workload or the
engine, only the events themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import events as ev
from .runs import read_records
from .timeline import run_start_capacity

__all__ = ["TraceAnalysis", "analyze_events", "load_events"]


def load_events(path: str | Path) -> list[dict]:
    """Load an event stream from ``.jsonl`` (tracer output) or ``.npz``
    (columnar recording)."""
    path = Path(path)
    if path.suffix.lower() == ".npz":
        from .columnar import ColumnarRecorder

        return ColumnarRecorder.load(path).to_events()
    return read_records(path)


def _stats(values: Sequence[float]) -> dict:
    """mean/median/p90/max summary of a sample (empty-safe)."""
    if not len(values):
        return {"n": 0, "mean": None, "median": None, "p90": None, "max": None}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
    }


def _weighted_percentiles(
    values: Sequence[float], weights: Sequence[float], qs: Sequence[float]
) -> list[float | None]:
    """Time-weighted percentiles of a step function given as
    (value, duration) segments."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    keep = w > 0
    v, w = v[keep], w[keep]
    if v.size == 0:
        return [None for _ in qs]
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    return [float(v[np.searchsorted(cum, q * total, side="left")]) for q in qs]


def _weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float | None:
    w = np.asarray(weights, dtype=np.float64)
    if w.sum() <= 0:
        return None
    return float(np.average(np.asarray(values, dtype=np.float64), weights=w))


@dataclass
class _JobRecord:
    """Internal per-job fold state."""

    submitted: float | None = None
    user: int | None = None
    cores: int = 0
    first_start: float | None = None
    starts: int = 0
    resubmits: int = 0
    backfilled: bool = False
    promised: bool = False
    outcome: str | None = None
    service: float = 0.0  # summed attempt durations (incl. lost attempts)
    _running_since: float | None = None


@dataclass
class TraceAnalysis:
    """One-pass characterization of an event stream.

    ``to_dict()`` is the machine-readable payload (``repro analyze
    --json``); ``render()`` is the human table view.  ``jobs`` keeps the
    raw per-job fold for downstream slicing and is deliberately *not*
    part of ``to_dict()`` (it scales with the trace).
    """

    n_events: int = 0
    kinds: dict = field(default_factory=dict)
    capacity: int | None = None
    policy: str | None = None
    engine: str | None = None
    n_jobs: int = 0
    makespan: float | None = None
    t0: float | None = None
    t1: float | None = None
    waits: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    starts: dict = field(default_factory=dict)
    backfill: dict = field(default_factory=dict)
    queue: dict = field(default_factory=dict)
    utilization: dict = field(default_factory=dict)
    per_user: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    jobs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "kinds": dict(sorted(self.kinds.items())),
            "capacity": self.capacity,
            "policy": self.policy,
            "engine": self.engine,
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "waits": self.waits,
            "service": self.service,
            "starts": self.starts,
            "backfill": self.backfill,
            "queue": self.queue,
            "utilization": self.utilization,
            "per_user": {str(u): s for u, s in self.per_user.items()},
            "faults": self.faults,
        }

    def render(self) -> str:
        # imported here: repro.viz sits above the obs layer in some call
        # paths; keep this module import-light for the engines
        from ..viz import bar, render_table, seconds

        def fmt_s(x):
            return seconds(x) if x is not None else "-"

        out = []
        head = [
            ("events", f"{self.n_events}"),
            ("jobs", f"{self.n_jobs}"),
            ("policy", self.policy or "-"),
            ("engine", self.engine or "-"),
            ("capacity", f"{self.capacity}" if self.capacity else "-"),
            ("makespan", fmt_s(self.makespan)),
        ]
        out.append(render_table(["field", "value"], head, title="trace"))

        rows = [
            ["queue wait", self.waits["n"], fmt_s(self.waits["mean"]),
             fmt_s(self.waits["median"]), fmt_s(self.waits["p90"]),
             fmt_s(self.waits["max"])],
            ["service", self.service["n"], fmt_s(self.service["mean"]),
             fmt_s(self.service["median"]), fmt_s(self.service["p90"]),
             fmt_s(self.service["max"])],
        ]
        out.append(
            render_table(
                ["phase", "n", "mean", "median", "p90", "max"],
                rows,
                title="job lifecycle",
            )
        )

        st = self.starts
        bf = self.backfill
        out.append(
            render_table(
                ["start class", "jobs", "share", "mean wait"],
                [
                    ["head-of-line", st["direct"]["jobs"],
                     f"{st['direct']['share']:.1%}", fmt_s(st["direct"]["mean_wait"])],
                    ["reserved head", st["reserved"]["jobs"],
                     f"{st['reserved']['share']:.1%}", fmt_s(st["reserved"]["mean_wait"])],
                    ["backfilled", st["backfilled"]["jobs"],
                     f"{st['backfilled']['share']:.1%}", fmt_s(st["backfilled"]["mean_wait"])],
                ],
                title=(
                    "start classes — backfill moved "
                    f"{bf['jobs']} job(s) / {bf['core_hours']:.1f} core-hours ahead"
                ),
            )
        )

        q = self.queue
        u = self.utilization
        rows = [
            ["queue depth", q["mean"], q["p50"], q["p90"], q["p99"], q["max"]],
        ]
        if u:
            rows.append(
                ["used cores", u["mean_used"], u["p50"], u["p90"], u["p99"], u["max_used"]]
            )
        out.append(
            render_table(
                ["series (time-weighted)", "mean", "p50", "p90", "p99", "max"],
                [[r[0]] + [("-" if x is None else f"{x:.1f}") for x in r[1:]] for r in rows],
                title="queue and capacity"
                + (
                    f" — utilization {bar(u['utilization'], 20)} {u['utilization']:.1%}"
                    if u and u.get("utilization") is not None
                    else ""
                ),
            )
        )

        if self.per_user:
            top = sorted(
                self.per_user.items(), key=lambda kv: -kv[1]["core_seconds"]
            )[:10]
            out.append(
                render_table(
                    ["user", "jobs", "mean wait", "core-hours"],
                    [
                        [uid, s["jobs"], fmt_s(s["mean_wait"]),
                         f"{s['core_seconds'] / 3600.0:.1f}"]
                        for uid, s in top
                    ],
                    title=f"top users ({len(self.per_user)} total)",
                )
            )

        if self.faults:
            f = self.faults
            rows = [[k, v] for k, v in sorted(f.get("outcomes", {}).items())]
            rows += [
                ["node failures", f.get("node_failures", 0)],
                ["retries", f.get("retries", 0)],
                ["resubmits", f.get("resubmits", 0)],
                ["checkpoints", f.get("checkpoints", 0)],
            ]
            out.append(render_table(["fault outcome", "count"], rows, title="faults"))

        return "\n\n".join(out)


def analyze_events(
    events: Iterable[dict], capacity: int | None = None
) -> TraceAnalysis:
    """Fold an event stream into a :class:`TraceAnalysis`.

    Works on any stream the engines emit — plain runs, fast-engine
    columnar decodes, and fault-engine traces (retries, resubmits and
    non-``completed`` outcomes are all folded in).  ``capacity``
    overrides the ``run_start`` header when the stream has none.
    """
    events = list(events)
    a = TraceAnalysis(n_events=len(events))
    a.capacity = run_start_capacity(events, capacity)

    jobs: dict[int, _JobRecord] = {}
    kinds: dict[str, int] = {}

    # queue-depth step function: +1 submit, -1 start (first consumption of
    # each submission; resubmits re-enter the queue and count again)
    q_depth = 0
    q_prev_t: float | None = None
    q_values: list[float] = []
    q_weights: list[float] = []

    # free-cores step function from capacity-carrying events
    f_prev_t: float | None = None
    f_prev_free: float | None = None
    f_values: list[float] = []
    f_weights: list[float] = []

    outcomes: dict[str, int] = {}
    node_failures = retries = resubmits = checkpoints = 0
    run_end_makespan: float | None = None

    def job(j: int) -> _JobRecord:
        rec = jobs.get(j)
        if rec is None:
            rec = jobs[j] = _JobRecord()
        return rec

    for event in events:
        kind = event.get("kind")
        t = float(event.get("t", 0.0))
        kinds[kind] = kinds.get(kind, 0) + 1
        if a.t0 is None:
            a.t0 = t
        a.t1 = t

        if kind == ev.RUN_START:
            a.policy = event.get("policy")
            a.engine = event.get("engine")
            continue
        if kind == ev.RUN_END:
            run_end_makespan = event.get("makespan")
            continue

        if kind == ev.SUBMIT:
            j = int(event["job"])
            rec = job(j)
            if event.get("resubmitted"):
                rec.resubmits += 1
                resubmits += 1
            else:
                rec.submitted = float(event.get("submitted", t))
            if "user" in event:
                rec.user = int(event["user"])
            if "cores" in event:
                rec.cores = int(event["cores"])
            if q_prev_t is not None:
                q_values.append(q_depth)
                q_weights.append(t - q_prev_t)
            q_prev_t = t
            q_depth += 1
        elif kind == ev.START:
            j = int(event["job"])
            rec = job(j)
            rec.starts += 1
            if rec.first_start is None:
                rec.first_start = t
            rec._running_since = t
            if "cores" in event:
                rec.cores = int(event["cores"])
            if q_prev_t is not None:
                q_values.append(q_depth)
                q_weights.append(t - q_prev_t)
            q_prev_t = t
            q_depth = max(q_depth - 1, 0)
        elif kind == ev.FINISH:
            j = int(event["job"])
            rec = job(j)
            if rec._running_since is not None:
                rec.service += t - rec._running_since
                rec._running_since = None
            label = event.get("outcome", "completed")
            if event.get("terminal", True):
                rec.outcome = label
            outcomes[label] = outcomes.get(label, 0) + 1
        elif kind == ev.RESERVATION:
            job(int(event["job"])).promised = True
        elif kind == ev.BACKFILL:
            rec = job(int(event["job"]))
            if rec.first_start is None:
                rec.backfilled = True
        elif kind == ev.NODE_FAIL:
            node_failures += 1
            for victim in event.get("victims", ()):  # attempts end here
                rec = jobs.get(int(victim))
                if rec is not None and rec._running_since is not None:
                    rec.service += t - rec._running_since
                    rec._running_since = None
        elif kind == ev.RETRY:
            retries += 1
        elif kind == ev.CHECKPOINT:
            checkpoints += 1

        if kind in ev.CAPACITY_EVENTS and "free" in event:
            if f_prev_t is not None:
                f_values.append(f_prev_free)
                f_weights.append(t - f_prev_t)
            f_prev_t = t
            f_prev_free = float(event["free"])

    a.kinds = kinds
    a.jobs = jobs
    a.n_jobs = len(jobs)
    if run_end_makespan is not None:
        a.makespan = float(run_end_makespan)
    elif a.t0 is not None and a.t1 is not None:
        a.makespan = a.t1 - a.t0

    waits = [
        r.first_start - r.submitted
        for r in jobs.values()
        if r.first_start is not None and r.submitted is not None
    ]
    a.waits = _stats(waits)
    a.service = _stats([r.service for r in jobs.values() if r.starts])

    started = [r for r in jobs.values() if r.first_start is not None]
    backfilled = [r for r in started if r.backfilled]
    reserved = [r for r in started if r.promised and not r.backfilled]
    direct = [r for r in started if not r.promised and not r.backfilled]
    n_started = max(len(started), 1)

    def _class(rows: list[_JobRecord]) -> dict:
        class_waits = [
            r.first_start - r.submitted for r in rows if r.submitted is not None
        ]
        return {
            "jobs": len(rows),
            "share": len(rows) / n_started,
            "mean_wait": (
                float(np.mean(class_waits)) if class_waits else None
            ),
        }

    a.starts = {
        "direct": _class(direct),
        "reserved": _class(reserved),
        "backfilled": _class(backfilled),
    }
    a.backfill = {
        "jobs": len(backfilled),
        "share": len(backfilled) / n_started,
        "core_hours": float(
            sum(r.cores * r.service for r in backfilled) / 3600.0
        ),
    }

    qs = _weighted_percentiles(q_values, q_weights, (0.5, 0.9, 0.99))
    a.queue = {
        "mean": _weighted_mean(q_values, q_weights),
        "p50": qs[0],
        "p90": qs[1],
        "p99": qs[2],
        "max": float(max(q_values)) if q_values else None,
    }

    if f_values and a.capacity:
        cap = float(a.capacity)
        used = [cap - f for f in f_values]
        us = _weighted_percentiles(used, f_weights, (0.5, 0.9, 0.99))
        mean_used = _weighted_mean(used, f_weights)
        a.utilization = {
            "mean_used": mean_used,
            "p50": us[0],
            "p90": us[1],
            "p99": us[2],
            "max_used": float(max(used)),
            "utilization": (
                mean_used / cap if mean_used is not None else None
            ),
        }

    users: dict[int, dict] = {}
    for r in jobs.values():
        if r.user is None:
            continue
        s = users.setdefault(
            r.user, {"jobs": 0, "core_seconds": 0.0, "_waits": []}
        )
        s["jobs"] += 1
        s["core_seconds"] += r.cores * r.service
        if r.first_start is not None and r.submitted is not None:
            s["_waits"].append(r.first_start - r.submitted)
    for s in users.values():
        w = s.pop("_waits")
        s["mean_wait"] = float(np.mean(w)) if w else None
        s["core_seconds"] = float(s["core_seconds"])
    a.per_user = users

    fault_kinds = kinds.keys() & {
        ev.NODE_FAIL, ev.NODE_REPAIR, ev.RETRY, ev.CHECKPOINT
    }
    if fault_kinds or resubmits or set(outcomes) - {"completed"}:
        attempts = [r.starts for r in jobs.values() if r.starts]
        a.faults = {
            "outcomes": outcomes,
            "node_failures": node_failures,
            "retries": retries,
            "resubmits": resubmits,
            "checkpoints": checkpoints,
            "mean_attempts": float(np.mean(attempts)) if attempts else None,
        }

    return a
