"""Lightweight wall-time profiling of engine hot paths.

A :class:`Profiler` hands out :meth:`~Profiler.span` context managers built
on :func:`time.perf_counter`; the engines wrap their hot paths (event
drain, policy sort, backfill scan, profile rebuild) in named spans and the
profiler accumulates per-name call counts and wall time.  The point is the
**per-run breakdown report** — before making a hot path faster you need to
know which one is hot, and every future perf PR benchmarks against these
numbers.

Beyond the aggregate table, every span entry/exit is also recorded as a
node in a **span tree**: each span gets an id, a parent link (whatever
span was open on this profiler when it entered), optional tags, and
start/end offsets against the profiler's epoch.  The tree serializes via
:meth:`Profiler.to_payload` into a process-tagged dict that
:mod:`repro.obs.export_chrome` turns into a Chrome trace-event JSON
(loadable in Perfetto / ``chrome://tracing``) or a collapsed-stack
flamegraph, and that :mod:`repro.runner.sweep` ships across the process
boundary so a sweep parent can merge worker timelines.

Spans are exception-safe: a span exited by an unwinding exception records
its error, and spans still open when :meth:`~Profiler.to_payload` runs
(e.g. the engine died mid-loop) are force-closed and marked ``partial``
rather than silently dropped.

When no profiler is passed, the engines use :data:`NULL_PROFILER`, whose
spans are a single shared no-op object — the disabled cost is one method
call and an empty ``with`` block per span site.
"""

from __future__ import annotations

import itertools
import os
import time
from time import perf_counter

__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER"]

_TRACE_IDS = itertools.count(1)


class _Span:
    """One timed region; records into its profiler on exit."""

    __slots__ = ("_profiler", "_name", "_tags", "_t0", "_id", "_parent_id",
                 "_child_s", "_closed")

    def __init__(self, profiler: "Profiler", name: str, tags: dict | None) -> None:
        self._profiler = profiler
        self._name = name
        self._tags = tags
        self._closed = False

    def __enter__(self) -> "_Span":
        # inlined Profiler._open: this runs once per engine scheduling
        # round, so every saved method call is measurable
        prof = self._profiler
        self._child_s = 0.0
        self._id = sid = prof._next_span_id
        prof._next_span_id = sid + 1
        stack = prof._stack
        self._parent_id = stack[-1]._id if stack else None
        stack.append(self)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter()
        prof = self._profiler
        stack = prof._stack
        if exc_type is None and stack and stack[-1] is self:
            # fast path: clean exit of the innermost span (the overwhelming
            # majority) — inlined Profiler._close without the stack repair
            stack.pop()
            self._closed = True
            elapsed = t1 - self._t0
            self_s = elapsed - self._child_s
            if self_s < 0.0:  # clock-resolution jitter
                self_s = 0.0
            if stack:
                stack[-1]._child_s += elapsed
            stat = prof._stats.get(self._name)
            if stat is None:
                prof._stats[self._name] = [1, elapsed, self_s]
            else:
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += self_s
            records = prof.records
            if len(records) >= prof.max_spans:
                prof.dropped_spans += 1
                return False
            rec: dict = {
                "id": self._id,
                "parent": self._parent_id,
                "name": self._name,
                "t0": self._t0 - prof._created,
                "t1": t1 - prof._created,
            }
            if self._tags:
                rec["args"] = self._tags
            records.append(rec)
            return False
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        prof._close(self, t1, error=error)
        return False


class _NullSpan:
    """Reusable no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """Profiler stand-in whose spans measure nothing."""

    enabled = False
    fine = False

    def span(self, name: str, **tags) -> _NullSpan:
        """Return the shared no-op span (tags are discarded)."""
        return _NULL_SPAN


#: shared disabled profiler used as the engines' default
NULL_PROFILER = NullProfiler()


class Profiler:
    """Accumulates wall time per named span and records the span tree.

    Spans with the same name aggregate; nesting works — each span times its
    own region and its *self* time (elapsed minus time spent in child
    spans) is tracked separately, so shares still sum to ~1 even when a
    root span encloses the whole run.  Parent links come from the open-span
    stack: a span entered while another is open becomes its child.

    ``worker`` tags every serialized payload with the producing worker's
    name so cross-process merges can lane-split by worker;
    ``created_unix`` anchors the :func:`~time.perf_counter` epoch to the
    wall clock so traces from different processes align on one timeline.
    Span records are capped at ``max_spans`` (aggregates keep counting;
    ``dropped_spans`` reports the overflow).

    ``fine`` selects span granularity: with ``fine=False`` the engines
    skip their per-scheduling-round spans (event drain, policy sort,
    backfill scan) and record only coarse structure (cell, simulate).  A
    recorded span costs microseconds of pure-Python bookkeeping, and the
    engines' rounds are themselves only tens of microseconds, so fine
    spans cost tens of percent of engine wall time — fine for an explicit
    ``repro profile`` deep dive, too hot to leave on in sweeps.  Sweep
    tracing therefore defaults to coarse spans (see
    :class:`repro.obs.perf.PerfConfig.fine_spans`) and delegates
    *statistical* depth to the sampling profiler, which prices depth at
    the sampling rate instead of the span rate.
    """

    enabled = True

    def __init__(self, worker: str | None = None, trace_id: int | None = None,
                 max_spans: int = 100_000, fine: bool = True) -> None:
        # name -> [calls, total_seconds, self_seconds]
        self._stats: dict[str, list] = {}
        self._created = perf_counter()
        self.created_unix = time.time()
        self.worker = worker
        self.trace_id = next(_TRACE_IDS) if trace_id is None else trace_id
        self.max_spans = max_spans
        self.fine = fine
        self.dropped_spans = 0
        #: serialized span records, in close order
        self.records: list[dict] = []
        self._stack: list[_Span] = []
        self._next_span_id = 1

    def span(self, name: str, **tags) -> _Span:
        """Context manager timing one region under ``name``.

        Keyword arguments become the span's tags (e.g.
        ``prof.span("simulate", engine="fast", policy="fcfs")``) and ride
        along into the serialized record's ``args``.
        """
        return _Span(self, name, tags or None)

    # -- span-tree bookkeeping -------------------------------------------

    def _open(self, span: _Span) -> None:
        span._id = self._next_span_id
        self._next_span_id += 1
        span._parent_id = self._stack[-1]._id if self._stack else None
        self._stack.append(span)

    def _close(self, span: _Span, t1: float, error: str | None = None,
               partial: bool = False) -> None:
        if span._closed:
            return
        stack = self._stack
        if span in stack:
            # force-close children abandoned by a non-local exit first so
            # the tree stays well-formed (they end when their parent does)
            while stack[-1] is not span:
                self._close(stack.pop(), t1, partial=True)
            stack.pop()
        span._closed = True
        elapsed = t1 - span._t0
        self_s = elapsed - span._child_s
        if self_s < 0.0:  # clock-resolution jitter
            self_s = 0.0
        if stack:
            stack[-1]._child_s += elapsed
        self._record(span._name, elapsed, self_s)
        if len(self.records) >= self.max_spans:
            self.dropped_spans += 1
            return
        rec: dict = {
            "id": span._id,
            "parent": span._parent_id,
            "name": span._name,
            "t0": span._t0 - self._created,
            "t1": t1 - self._created,
        }
        if span._tags:
            rec["args"] = span._tags
        if error is not None:
            rec["error"] = error
        if partial:
            rec["partial"] = True
        self.records.append(rec)

    def close_open_spans(self) -> int:
        """Force-close every still-open span, marking it ``partial``.

        Called (directly or via :meth:`to_payload`) after an exception
        unwound past the span sites, so a crashed run still serializes a
        usable partial tree.  Returns the number of spans closed.
        """
        n = len(self._stack)
        now = perf_counter()
        while self._stack:
            self._close(self._stack.pop(), now, partial=True)
        return n

    def _record(self, name: str, elapsed: float, self_s: float | None = None) -> None:
        if self_s is None:
            self_s = elapsed
        stat = self._stats.get(name)
        if stat is None:
            self._stats[name] = [1, elapsed, self_s]
        else:
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += self_s

    @property
    def wall_seconds(self) -> float:
        """Wall time since this profiler was created."""
        return perf_counter() - self._created

    @property
    def profiled_seconds(self) -> float:
        """Total *self* time inside spans (across all names).

        Self time excludes nested child spans, so the sum stays bounded by
        wall time even with an all-enclosing root span; for the flat
        non-overlapping engine leaves it equals total span time.
        """
        return sum(stat[2] for stat in self._stats.values())

    def stats(self, name: str) -> tuple[int, float]:
        """(calls, total_seconds) for one span name."""
        count, total, _self_s = self._stats[name]
        return int(count), float(total)

    def as_dict(self) -> dict:
        """Structured breakdown, hottest span (by self time) first."""
        profiled = self.profiled_seconds
        spans = {}
        for name, (count, total, self_s) in sorted(
            self._stats.items(), key=lambda kv: -kv[1][2]
        ):
            spans[name] = {
                "calls": int(count),
                "total_s": float(total),
                "self_s": float(self_s),
                "mean_us": 1e6 * total / count if count else 0.0,
                "share": self_s / profiled if profiled > 0 else 0.0,
            }
        return {
            "wall_s": self.wall_seconds,
            "profiled_s": profiled,
            "spans": spans,
        }

    def to_payload(self, close_open: bool = True) -> dict:
        """JSON-safe snapshot of the span tree for cross-process shipping.

        With ``close_open`` (the default) any spans still on the stack —
        i.e. an exception is unwinding, or the caller snapshots mid-run —
        are force-closed and marked ``partial`` so no timing data is lost.
        The payload is self-contained: :mod:`repro.obs.export_chrome`
        renders it without access to the originating process.
        """
        if close_open:
            self.close_open_spans()
        return {
            "trace_id": self.trace_id,
            "worker": self.worker,
            "pid": os.getpid(),
            "epoch_unix": self.created_unix,
            "wall_s": self.wall_seconds,
            "profiled_s": self.profiled_seconds,
            "dropped_spans": self.dropped_spans,
            "spans": list(self.records),
        }

    def report(self) -> str:
        """Human-readable per-span wall-time breakdown."""
        from ..viz import render_table

        snapshot = self.as_dict()
        rows = [
            [
                name,
                f"{stat['calls']:,}",
                f"{stat['total_s'] * 1e3:.2f}",
                f"{stat['self_s'] * 1e3:.2f}",
                f"{stat['mean_us']:.2f}",
                f"{100.0 * stat['share']:.1f}%",
            ]
            for name, stat in snapshot["spans"].items()
        ]
        if not rows:
            rows = [["(no spans recorded)", "-", "-", "-", "-", "-"]]
        table = render_table(
            ["span", "calls", "total (ms)", "self (ms)", "mean (us)", "share"],
            rows,
            title="hot-path wall-time breakdown",
        )
        return (
            f"{table}\n"
            f"profiled {snapshot['profiled_s'] * 1e3:.2f} ms of "
            f"{snapshot['wall_s'] * 1e3:.2f} ms wall"
        )
