"""Cross-process performance observability for sweeps.

Three pieces that turn the per-process :class:`repro.obs.profiling.Profiler`
into a sweep-wide observatory:

* :class:`SamplingProfiler` — a thread-based statistical profiler that
  periodically snapshots the target thread's Python stack via
  :func:`sys._current_frames` and keeps counts per collapsed ``repro.*``
  call path.  It answers *where inside* a span the time goes (the engine
  spans only time blobs) at near-zero overhead, and its stacks merge into
  the same flamegraph as the span tree.

* :class:`PerfConfig` — the knob bundle callers hand to
  :func:`repro.runner.run_sweep` (``perf=``).  It is picklable so the
  parent can ship a stripped copy to workers; the parent-side copy also
  carries the accumulating :class:`SweepTrace` so successive sweeps (e.g.
  a two-phase experiment) merge into one timeline.

* :class:`SweepTrace` — the parent-side aggregate: per-cell worker
  payloads (span tree + sample stacks + optional metrics), instant events
  (cache hits, journal replays, watchdog retries, failures), and the
  parent's own phase spans.  Renders to Chrome trace-event JSON
  (Perfetto) and Brendan-Gregg collapsed stacks via
  :mod:`repro.obs.export_chrome`.

Everything here observes and never decides: enabling it changes no
simulation output, and all payloads are sidecars excluded from cache
fingerprints (docs/OBSERVABILITY.md, "Performance tracing").
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .export_chrome import (
    ChromeTraceExporter,
    collapse_stacks,
    format_collapsed,
)

__all__ = ["SamplingProfiler", "PerfConfig", "SweepTrace", "run_traced"]


class SamplingProfiler:
    """Statistical wall-time profiler for one thread.

    A daemon thread wakes ``hz`` times per second, grabs the target
    thread's current frame from :func:`sys._current_frames`, and collapses
    it into a root-first ``"mod.func;mod.func;..."`` path keeping only
    frames whose module matches ``prefix`` (default: the ``repro``
    package).  Counts per path accumulate in :attr:`stacks`.

    Thread-based rather than ``SIGPROF``-based on purpose: the test
    harness already owns ``SIGALRM`` for per-test timeouts, signals do not
    fire inside worker threads, and a sampler thread works identically on
    every platform.  The flip side (documented in OBSERVABILITY.md): GIL
    hand-off means samples land on bytecode boundaries, so treat counts as
    statistical weight, not exact time — and C-extension time (NumPy
    kernels) is attributed to the Python line that called in.
    """

    def __init__(self, hz: float = 97.0, prefix: str = "repro",
                 thread_id: int | None = None) -> None:
        if not hz > 0.0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.prefix = prefix
        self.stacks: dict[str, int] = {}
        self.n_samples = 0
        self.n_unmatched = 0
        self._thread_id = thread_id
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread (or ``thread_id``)."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self._thread_id is None:
            self._thread_id = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def _run(self) -> None:
        interval = 1.0 / self.hz
        target = self._thread_id
        while not self._stop.wait(interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            path = self._collapse(frame)
            if path:
                self.stacks[path] = self.stacks.get(path, 0) + 1
                self.n_samples += 1
            else:
                self.n_unmatched += 1

    def _collapse(self, frame) -> str:
        prefix, dotted = self.prefix, self.prefix + "."
        parts: list[str] = []
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if not prefix or mod == prefix or mod.startswith(dotted):
                parts.append(f"{mod}.{frame.f_code.co_name}")
            frame = frame.f_back
        parts.reverse()
        return ";".join(parts)

    def to_payload(self) -> dict:
        """JSON-safe snapshot: rate, sample counts, collapsed stacks."""
        return {
            "hz": self.hz,
            "prefix": self.prefix,
            "n_samples": self.n_samples,
            "n_unmatched": self.n_unmatched,
            "stacks": dict(self.stacks),
        }


@dataclass
class PerfConfig:
    """Performance-tracing knobs for :func:`repro.runner.run_sweep`.

    ``sampler_hz`` > 0 runs a :class:`SamplingProfiler` next to each
    cell's span profiler; ``collect_metrics`` additionally ships each
    cell's :class:`repro.obs.metrics.Metrics` snapshot; ``trace_out`` /
    ``stacks_out`` make the sweep parent write the merged Chrome trace
    JSON / collapsed flamegraph stacks when the sweep finishes.

    ``fine_spans`` records the engines' per-scheduling-round spans
    (event drain, policy sort, backfill scan) in addition to the coarse
    cell/simulate structure.  It is off by default because a recorded
    span costs microseconds of pure-Python bookkeeping per scheduling
    round — tens of percent of engine wall time — whereas the coarse
    default stays within the <5% sweep-overhead budget enforced by
    ``benchmarks/test_bench_obs_overhead.py``.  For statistical depth at
    bounded cost, prefer ``sampler_hz``; for exact per-round spans on one
    run, prefer ``repro profile`` (which always records fine spans).

    The parent stores its accumulating :class:`SweepTrace` on ``trace``;
    reusing one config across several ``run_sweep`` calls appends them all
    to a single timeline (the output files are rewritten after each
    sweep).  Workers receive :meth:`worker_config` — the same knobs minus
    the parent-side state — so the config pickles cheaply under both fork
    and spawn.
    """

    sampler_hz: float = 0.0
    collect_metrics: bool = False
    fine_spans: bool = False
    trace_out: str | Path | None = None
    stacks_out: str | Path | None = None
    #: parent-side accumulator; populated by run_sweep, never pickled to workers
    trace: "SweepTrace | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sampler_hz < 0.0:
            raise ValueError(
                f"sampler_hz must be >= 0, got {self.sampler_hz!r}"
            )

    def worker_config(self) -> "PerfConfig":
        """Stripped picklable copy for shipping to sweep workers."""
        return PerfConfig(
            sampler_hz=self.sampler_hz,
            collect_metrics=self.collect_metrics,
            fine_spans=self.fine_spans,
        )


class SweepTrace:
    """Sweep-wide performance trace merged from worker sidecar payloads.

    The ``run_sweep`` parent feeds it three streams: per-cell payloads
    (:meth:`add_cell` — each a worker-tagged span tree plus optional
    sampler stacks and metrics, including *partial* trees from failed
    attempts), instant events (:meth:`add_event` — cache hits, journal
    replays, watchdog retries, terminal failures), and the parent's own
    phase profile (:meth:`add_parent`).  Workers are identified by their
    process name, which becomes the Perfetto lane.
    """

    def __init__(self) -> None:
        self.cells: list[dict] = []
        self.events: list[dict] = []
        self.parents: list[dict] = []

    # -- ingest ----------------------------------------------------------

    def add_cell(self, label: str, payload: dict, failed: bool = False) -> None:
        """Record one cell's worker-side perf payload."""
        entry = dict(payload)
        entry["label"] = label
        if failed:
            entry["failed"] = True
        self.cells.append(entry)

    def add_event(self, kind: str, label: str, **args) -> None:
        """Record a parent-side instant (cache hit, retry, failure...)."""
        event = {"kind": kind, "label": label, "ts_unix": time.time()}
        if args:
            event["args"] = {k: v for k, v in args.items() if v is not None}
        self.events.append(event)

    def add_parent(self, payload: dict) -> None:
        """Record the sweep parent's own phase profile."""
        self.parents.append(payload)

    # -- aggregate views -------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def workers(self) -> list[str]:
        """Distinct worker lanes, sorted."""
        names = set()
        for cell in self.cells:
            profile = cell.get("profile") or {}
            names.add(profile.get("worker") or f"pid-{profile.get('pid')}")
        return sorted(names)

    def to_exporter(self) -> ChromeTraceExporter:
        """Build the Chrome trace exporter over everything ingested."""
        exporter = ChromeTraceExporter()
        for payload in self.parents:
            exporter.add_profile(payload, lane="sweep-parent")
        for cell in self.cells:
            profile = cell.get("profile")
            if profile:
                exporter.add_profile(
                    profile,
                    lane=profile.get("worker") or f"pid-{profile.get('pid')}",
                )
        for event in self.events:
            exporter.add_instant(
                event["kind"],
                event["ts_unix"],
                lane="sweep-parent",
                args={"label": event["label"], **event.get("args", {})},
            )
        return exporter

    def collapsed(self) -> dict[str, int]:
        """Merged collapsed stacks (span trees + sampler samples)."""
        profiles = list(self.parents)
        samplers = []
        for cell in self.cells:
            if cell.get("profile"):
                profiles.append(cell["profile"])
            if cell.get("sampler"):
                samplers.append(cell["sampler"])
        return collapse_stacks(profiles, samplers)

    def to_payload(self) -> dict:
        """JSON-safe dump of the raw ingested streams."""
        return {
            "cells": list(self.cells),
            "events": list(self.events),
            "parents": list(self.parents),
        }

    # -- file outputs ----------------------------------------------------

    def write_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.to_exporter().write(path)
        return path

    def write_stacks(self, path: str | Path) -> Path:
        """Write Brendan-Gregg collapsed stacks to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(format_collapsed(self.collapsed()), encoding="utf-8")
        return path

    def flush(self, config: PerfConfig) -> None:
        """Write whichever outputs ``config`` asks for."""
        if config.trace_out is not None:
            self.write_trace(config.trace_out)
        if config.stacks_out is not None:
            self.write_stacks(config.stacks_out)


def _cell_payload(prof, sampler, metrics) -> dict:
    """Assemble one cell's perf sidecar (force-closes open spans)."""
    payload: dict = {"profile": prof.to_payload()}
    if sampler is not None:
        payload["sampler"] = sampler.to_payload()
    if metrics is not None:
        payload["metrics"] = metrics.to_dict()
    return payload


def run_traced(config: PerfConfig, fn: Callable, label: str, **tags):
    """Run one pool cell, ``fn(profiler, metrics)``, traced (worker side).

    The cell runs inside a ``cell`` span (tagged ``label`` and ``tags``)
    of a :class:`~repro.obs.profiling.Profiler` named after this process,
    next to a :class:`SamplingProfiler` and a
    :class:`~repro.obs.metrics.Metrics` registry when ``config`` asks for
    them (``metrics`` is ``None`` otherwise).  ``fn`` returns a dataclass
    with a ``perf`` field; the serialized payloads ride back on it — pure
    observation, the cell's output is bit-identical either way.  If ``fn``
    raises, the partial span tree is attached to the exception as
    ``perf_payload`` so the watchdog can ship it to the parent instead of
    dropping the timing data with the traceback.
    """
    from .profiling import Profiler

    prof = Profiler(
        worker=multiprocessing.current_process().name, fine=config.fine_spans
    )
    sampler = None
    if config.sampler_hz > 0:
        sampler = SamplingProfiler(hz=config.sampler_hz).start()
    metrics = None
    if config.collect_metrics:
        from .metrics import Metrics

        metrics = Metrics()
    try:
        with prof.span("cell", label=label, **tags):
            result = fn(prof, metrics)
    except BaseException as exc:
        if sampler is not None:
            sampler.stop()
        try:
            exc.perf_payload = _cell_payload(prof, sampler, metrics)
        except Exception:  # pragma: no cover - exotic exception classes
            pass
        raise
    if sampler is not None:
        sampler.stop()
    return dataclasses.replace(
        result, perf=_cell_payload(prof, sampler, metrics)
    )
