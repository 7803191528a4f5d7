"""Observability layer: structured tracing, metrics, and profiling.

The simulation engines are instrumented with three independent, individually
optional sinks (``simulate(..., tracer=, metrics=, profiler=)``):

* **tracing** (:mod:`repro.obs.tracer`) — typed decision events (submit,
  start, finish, reservation, backfill, node-fail/repair, retry,
  checkpoint) with sim-time and decision context; JSONL, ring-buffer and
  columnar (:mod:`repro.obs.columnar` — the fast engine's recording
  format, ``.npz``-persistable, exact-decoding) backends;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  log-bucketed histograms plus a sim-time-sampled utilization/queue-depth
  series; JSON and Prometheus text exports;
* **profiling** (:mod:`repro.obs.profiling`) — ``perf_counter`` spans
  around engine hot paths with a per-run wall-time breakdown.

All three default to shared no-op objects so the uninstrumented hot path
stays effectively free (see ``benchmarks/test_bench_obs_overhead.py``),
and a run with sinks attached is **bit-identical** to one without — the
instrumentation observes, never decides.  :mod:`repro.obs.timeline`
replays captured streams into audits and schedule timelines, and
:mod:`repro.obs.analyze` folds them into job-characterization analytics
(wait/service decomposition, start classes, time-weighted queue and
utilization percentiles, per-user summaries — ``repro analyze``).

The layers *above* the engines get the same treatment:
:mod:`repro.obs.runs` logs per-task sweep telemetry (``RunRegistry``),
aggregates it (``SweepReport``), streams live progress
(``ProgressReporter`` backends) and computes perf trajectories plus the
noise-aware :func:`~repro.obs.runs.perf_gate` regression verdicts.

Cross-process performance tracing lives in :mod:`repro.obs.perf`
(``PerfConfig`` / ``SamplingProfiler`` / ``SweepTrace`` — sweep workers
ship span trees and sample stacks back to the parent as sidecar payloads)
and :mod:`repro.obs.export_chrome` (Perfetto-loadable Chrome trace-event
JSON and Brendan-Gregg collapsed flamegraph stacks).

See ``docs/OBSERVABILITY.md`` for the event schema and worked examples.
The stream-level audit (:func:`repro.obs.timeline.check_events`) is also
re-exported by :mod:`repro.testkit.invariants`, which adds result-level
invariant checks and a differential fuzzer on top — ``docs/TESTING.md``.
"""

from . import events
from .analyze import TraceAnalysis, analyze_events, load_events
from .columnar import ColumnarRecorder
from .events import CAPACITY_EVENTS, EVENT_KINDS, make_event
from .export_chrome import (
    ChromeTraceExporter,
    collapse_spans,
    collapse_stacks,
    format_collapsed,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from .perf import PerfConfig, SamplingProfiler, SweepTrace
from .profiling import NULL_PROFILER, NullProfiler, Profiler
from .tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RingBufferTracer,
    Tracer,
)
from .runs import (
    NULL_PROGRESS,
    JsonlProgress,
    NullProgress,
    ProgressReporter,
    RunRecord,
    RunRegistry,
    SweepReport,
    TtyProgress,
    perf_gate,
    read_records,
    trajectory,
)
from .timeline import (
    check_events,
    render_timeline,
    run_start_capacity,
    summarize_events,
    utilization_series,
)

__all__ = [
    "events",
    "make_event",
    "EVENT_KINDS",
    "CAPACITY_EVENTS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlTracer",
    "RingBufferTracer",
    "ColumnarRecorder",
    "TraceAnalysis",
    "analyze_events",
    "load_events",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "DEFAULT_BUCKETS",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "PerfConfig",
    "SamplingProfiler",
    "SweepTrace",
    "ChromeTraceExporter",
    "collapse_spans",
    "collapse_stacks",
    "format_collapsed",
    "check_events",
    "render_timeline",
    "run_start_capacity",
    "summarize_events",
    "utilization_series",
    "RunRecord",
    "RunRegistry",
    "SweepReport",
    "ProgressReporter",
    "NullProgress",
    "NULL_PROGRESS",
    "TtyProgress",
    "JsonlProgress",
    "read_records",
    "trajectory",
    "perf_gate",
]
