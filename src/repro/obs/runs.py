"""Run registry & sweep telemetry: observability for the layer *above* the engines.

:mod:`repro.obs` instruments the simulation engines; this module instruments
the orchestration on top of them.  Three pieces:

* :class:`RunRegistry` — an append-only ``runs.jsonl`` of per-task
  :class:`RunRecord` rows written by :func:`repro.runner.run_sweep`.  Each
  record identifies a sweep cell by fingerprint (the same content hash the
  result cache uses), says where and how long it ran (worker id, wall
  seconds, cache hit/miss), and carries the cell's key result metrics —
  the same telemetry a production cluster logs per task so the work mix
  can be mined later (the paper's own methodology, applied to our runs).
  Appends are single ``O_APPEND`` writes of one complete line, so
  concurrent sweeps can share a registry file without interleaving.
* :class:`SweepReport` — aggregates a record stream into per-worker load
  balance, straggler detection (tasks above ``k×`` the median wall time),
  cache efficiency, and throughput; exports JSON and rendered text.
* :class:`ProgressReporter` — a small protocol driven from the
  ``run_sweep`` parent as worker futures complete.  Reporting observes
  completion order but never feeds anything back into a task, so the
  sweep's bit-identical-to-serial guarantee is untouched.  Backends:
  :class:`NullProgress` (the free default), :class:`TtyProgress` (one
  self-overwriting status line), :class:`JsonlProgress` (machine-readable
  event stream).

:func:`trajectory` turns any keyed JSONL timing log (a run registry, or the
bench history written by ``benchmarks/conftest.py`` under ``BENCH_OUT``)
into an ordered per-key series with regression flags; ``repro.cli report``
renders it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import IO, Iterable, Sequence

__all__ = [
    "RunRecord",
    "RunRegistry",
    "SweepReport",
    "ProgressReporter",
    "NullProgress",
    "NULL_PROGRESS",
    "TtyProgress",
    "JsonlProgress",
    "trajectory",
    "perf_gate",
    "read_records",
    "repair_torn_tail",
]


@dataclass(frozen=True)
class RunRecord:
    """One task execution observed by a sweep.

    ``seq`` is the completion index within the sweep invocation (cache
    hits are reported first, then computed cells in the order their
    futures completed); ``worker`` is ``"cache"`` for hits, ``"journal"``
    for cells replayed from a sweep journal, and otherwise the executing
    process's name.  ``metrics`` carries the cell's result metrics
    verbatim so a registry can be mined without the result cache at hand.

    ``status``/``attempt`` record the crash-safe runner's view of the
    cell: ``"ok"`` for a produced result, ``"retried:<kind>"`` for a
    transient attempt that was re-run, ``"failed:<kind>"`` for a terminal
    failure (kind is ``crash``/``timeout``/``corrupt``/``error``);
    ``attempt`` is the 1-based execution attempt the row describes.
    """

    fingerprint: str
    label: str
    policy: str
    system: str | None
    wall_seconds: float
    cached: bool
    worker: str
    seq: int
    code: str
    metrics: dict = field(default_factory=dict)
    ts: float = 0.0
    status: str = "ok"
    attempt: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


def read_records(path: str | Path) -> list[dict]:
    """Parse a JSONL file (event stream, run registry, journal, bench history).

    Blank lines are skipped; a malformed line raises :class:`ValueError`
    naming its line number, because a silently dropped record would make
    a trajectory lie.  The one exception: a malformed final line **with
    no trailing newline** is the signature of a crash mid-append (the
    failure mode the append-only files are designed to survive), so it is
    skipped with a :class:`RuntimeWarning` naming the file instead of
    poisoning every future read.  A newline-terminated invalid line —
    even the last one — is real corruption and still raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    records: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            is_torn_tail = (
                not raw.endswith("\n")
                and all(not rest.strip() for rest in lines[lineno:])
            )
            if is_torn_tail:
                warnings.warn(
                    f"{path}: skipped truncated final line {lineno} "
                    "(no trailing newline; crash mid-append?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"{path}: line {lineno} is not valid JSON: {exc}"
            ) from exc
    return records


def repair_torn_tail(path: str | Path, fd: int) -> int:
    """Drop a torn (newline-less) final line left by a crash mid-append.

    Called by append-only writers (:class:`RunRegistry`,
    :class:`repro.runner.journal.SweepJournal`) when they open their file:
    a process killed mid-``os.write`` can leave a partial last line, and
    truncating it back to the last complete line keeps the file strictly
    parseable forever — the lost record was incomplete anyway, and
    recomputing it is the safe direction.  Returns the number of bytes
    dropped (0 when the file was clean); a non-zero repair is surfaced
    with a :class:`RuntimeWarning`.
    """
    size = os.fstat(fd).st_size
    if size == 0:
        return 0
    raw = Path(path).read_bytes()
    if raw.endswith(b"\n"):
        return 0
    keep = raw.rfind(b"\n") + 1  # 0 when no complete line survives
    os.ftruncate(fd, keep)
    dropped = len(raw) - keep
    warnings.warn(
        f"{path}: dropped a torn {dropped}-byte final line "
        "(crash mid-append?); the file is clean again",
        RuntimeWarning,
        stacklevel=3,
    )
    return dropped


class RunRegistry:
    """Append-only JSONL store of :class:`RunRecord` rows.

    Every :meth:`append` is one complete line written with a single
    ``os.write`` on an ``O_APPEND`` descriptor — atomic on local
    filesystems, so concurrent sweep processes can log into one file and
    every line stays parseable.  The registry never rewrites history;
    repeated sweeps accumulate, which is exactly what makes trajectories
    (``repro.cli report``) possible.

    A process killed mid-append can leave a torn final line with no
    trailing newline; opening the registry truncates that tail back to
    the last complete line (see :func:`repair_torn_tail`), so one crash
    never makes the file unparseable.  Readers that meet a torn tail
    before any writer repaired it skip it with a warning — see
    :func:`read_records`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.count = 0
        repair_torn_tail(self.path, self._fd)

    def append(self, record: "RunRecord | dict") -> None:
        """Write one record as one atomic JSONL line."""
        if self._fd is None:
            raise ValueError(f"registry {self.path} is closed")
        payload = record.to_dict() if isinstance(record, RunRecord) else dict(record)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        self.count += 1

    def records(self) -> list[dict]:
        """Read back every record currently in the file."""
        if not self.path.exists():
            return []
        return read_records(self.path)

    def close(self) -> None:
        """Release the descriptor (idempotent; appends are already durable)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _status(record: dict) -> str:
    """Normalized status of a run record (older rows predate the field)."""
    return record.get("status") or "ok"


class SweepReport:
    """Aggregate view of a run-record stream.

    Works on records from :class:`RunRegistry.records` (or any iterable of
    compatible dicts).  Cached cells count toward cache efficiency but are
    excluded from wall-time statistics — a hit costs a file read, not a
    simulation — so load balance and stragglers describe real work only.

    Rows logged by the crash-safe runner with ``status`` ``"failed:*"`` /
    ``"retried:*"`` are split out (``failed``/``retried``): their wall
    time measures a timeout or a dying worker, not engine speed, so they
    never pollute load balance, stragglers or throughput.  ``n_tasks``
    counts *cells* (terminal rows), not attempts.
    """

    def __init__(
        self, records: Iterable[dict], straggler_factor: float = 3.0
    ) -> None:
        if straggler_factor <= 1.0:
            raise ValueError("straggler_factor must be > 1")
        self.records = list(records)
        self.straggler_factor = float(straggler_factor)
        self.failed = [r for r in self.records if _status(r).startswith("failed")]
        self.retried = [
            r for r in self.records if _status(r).startswith("retried")
        ]
        ok = [r for r in self.records if _status(r) == "ok"]
        self.computed = [r for r in ok if not r.get("cached")]
        self.n_tasks = len(ok) + len(self.failed)
        self.n_cached = len(ok) - len(self.computed)

    # ------------------------------------------------------------ aggregates
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells served from the result cache (NaN when empty)."""
        if not self.records:
            return math.nan
        return self.n_cached / self.n_tasks

    @property
    def median_wall(self) -> float:
        walls = sorted(r["wall_seconds"] for r in self.computed)
        if not walls:
            return math.nan
        mid = len(walls) // 2
        if len(walls) % 2:
            return walls[mid]
        return 0.5 * (walls[mid - 1] + walls[mid])

    @property
    def total_wall(self) -> float:
        """Summed compute wall time (cpu-seconds across workers)."""
        return sum(r["wall_seconds"] for r in self.computed)

    def per_worker(self) -> dict[str, dict]:
        """``worker -> {"tasks": n, "wall_seconds": total}`` over computed cells."""
        out: dict[str, dict] = {}
        for r in self.computed:
            slot = out.setdefault(r["worker"], {"tasks": 0, "wall_seconds": 0.0})
            slot["tasks"] += 1
            slot["wall_seconds"] += r["wall_seconds"]
        return out

    @property
    def balance(self) -> float:
        """Busiest worker's wall over the mean worker wall (1.0 = perfect).

        The classic load-imbalance factor: with ``w`` workers, finishing
        the sweep takes ``balance / w`` of the serial time instead of the
        ideal ``1 / w``.
        """
        workers = self.per_worker()
        if not workers:
            return math.nan
        walls = [slot["wall_seconds"] for slot in workers.values()]
        mean = sum(walls) / len(walls)
        return max(walls) / mean if mean > 0 else math.nan

    def stragglers(self) -> list[dict]:
        """Computed cells whose wall time exceeds ``factor × median``."""
        median = self.median_wall
        if not math.isfinite(median) or median <= 0:
            return []
        limit = self.straggler_factor * median
        out = []
        for r in self.computed:
            if r["wall_seconds"] > limit:
                out.append({**r, "ratio_to_median": r["wall_seconds"] / median})
        return sorted(out, key=lambda r: -r["wall_seconds"])

    @property
    def throughput(self) -> float:
        """Tasks per wall-clock second, estimated from completion stamps.

        Uses the ``ts`` span when the records carry distinct timestamps
        (and widens it by the first completion's own wall time, which the
        span misses); falls back to summed compute time for single-record
        or timestamp-free streams.  An estimate — sweeps that share a
        registry file interleave their stamps.
        """
        if not self.n_tasks:
            return math.nan
        stamps = [r.get("ts", 0.0) for r in self.records]
        span = max(stamps) - min(stamps)
        if span > 0:
            first = min(self.records, key=lambda r: r.get("ts", 0.0))
            span += first.get("wall_seconds", 0.0)
            return self.n_tasks / span
        total = self.total_wall
        return self.n_tasks / total if total > 0 else math.nan

    # --------------------------------------------------------------- export
    def to_dict(self) -> dict:
        def clean(x: float) -> float | None:
            return x if isinstance(x, (int, float)) and math.isfinite(x) else None

        return {
            "n_tasks": self.n_tasks,
            "n_cached": self.n_cached,
            "n_computed": len(self.computed),
            "n_failed": len(self.failed),
            "n_retried": len(self.retried),
            "cache_hit_rate": clean(self.cache_hit_rate),
            "wall": {
                "total_s": self.total_wall,
                "median_s": clean(self.median_wall),
                "max_s": max(
                    (r["wall_seconds"] for r in self.computed), default=None
                ),
            },
            "workers": self.per_worker(),
            "balance": clean(self.balance),
            "straggler_factor": self.straggler_factor,
            "stragglers": [
                {
                    "label": r.get("label"),
                    "fingerprint": r.get("fingerprint"),
                    "wall_seconds": r["wall_seconds"],
                    "ratio_to_median": r["ratio_to_median"],
                }
                for r in self.stragglers()
            ],
            "throughput_tasks_per_s": clean(self.throughput),
        }

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    def render(self) -> str:
        """Human-readable aggregate tables (cache, workers, stragglers)."""
        from ..viz import render_table

        snap = self.to_dict()

        def fmt(value, pattern="{:.2f}"):
            return "-" if value is None else pattern.format(value)

        overview = render_table(
            ["metric", "value"],
            [
                ["tasks", str(snap["n_tasks"])],
                ["cached", str(snap["n_cached"])],
                ["computed", str(snap["n_computed"])],
                ["failed", str(snap["n_failed"])],
                ["retried attempts", str(snap["n_retried"])],
                ["cache efficiency", fmt(snap["cache_hit_rate"], "{:.1%}")],
                ["compute wall (s)", fmt(snap["wall"]["total_s"])],
                ["median task (s)", fmt(snap["wall"]["median_s"], "{:.3f}")],
                ["max task (s)", fmt(snap["wall"]["max_s"], "{:.3f}")],
                ["load balance (max/mean)", fmt(snap["balance"])],
                ["throughput (tasks/s)", fmt(snap["throughput_tasks_per_s"])],
            ],
            title="sweep summary",
        )
        parts = [overview]
        if snap["workers"]:
            parts.append(
                render_table(
                    ["worker", "tasks", "wall (s)"],
                    [
                        [name, str(slot["tasks"]), f"{slot['wall_seconds']:.2f}"]
                        for name, slot in sorted(snap["workers"].items())
                    ],
                    title="per-worker load",
                )
            )
        straggler_rows = [
            [
                str(s["label"]),
                f"{s['wall_seconds']:.3f}",
                f"{s['ratio_to_median']:.1f}x",
            ]
            for s in snap["stragglers"]
        ]
        if not straggler_rows:
            straggler_rows = [["(none)", "-", "-"]]
        parts.append(
            render_table(
                ["task", "wall (s)", "vs median"],
                straggler_rows,
                title=f"stragglers (> {self.straggler_factor:g}x median)",
            )
        )
        return "\n".join(parts)


# ------------------------------------------------------------------ progress
class ProgressReporter:
    """Protocol for sweep progress; every hook is optional to override.

    ``enabled`` mirrors :class:`~repro.obs.tracer.Tracer`'s fast-path
    flag: ``run_sweep`` builds per-task records only when a registry is
    attached or the reporter is enabled, so the default path stays free.
    Hooks fire in the parent process as futures complete — they observe
    the sweep, never influence it.
    """

    enabled: bool = True

    def sweep_start(self, total: int, cached: int, jobs: int) -> None:
        """Called once before any task is reported."""

    def task_done(self, record: RunRecord, done: int, total: int) -> None:
        """Called per cell in completion order (cache hits first).

        Terminal failures under ``on_error="skip"``/``"retry"`` arrive
        here too, with ``record.status == "failed:<kind>"``.
        """

    def task_retried(self, record: RunRecord) -> None:
        """Called per transient attempt the crash-safe runner re-queues
        (``record.status == "retried:<kind>"``); not counted in ``done``."""

    def sweep_end(self, stats: dict) -> None:
        """Called once with the sweep's :class:`SweepStats` dict."""

    def close(self) -> None:
        """Flush and release backing resources (idempotent)."""

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullProgress(ProgressReporter):
    """The do-nothing default; ``enabled`` is False."""

    enabled = False


#: shared no-op instance used as ``run_sweep``'s default reporter
NULL_PROGRESS = NullProgress()


class TtyProgress(ProgressReporter):
    """One self-overwriting status line (for humans watching a terminal)."""

    def __init__(self, stream: IO[str] | None = None, width: int = 78) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._width = int(width)
        self._t0 = time.perf_counter()
        self._total = 0

    def sweep_start(self, total: int, cached: int, jobs: int) -> None:
        self._t0 = time.perf_counter()
        self._total = total
        self._stream.write(
            f"sweep: {total} task(s), {cached} cached, {jobs} worker(s)\n"
        )
        self._stream.flush()

    def task_done(self, record: RunRecord, done: int, total: int) -> None:
        cost = "cached" if record.cached else f"{record.wall_seconds:.2f}s"
        if record.status != "ok":
            cost = record.status
        line = (
            f"[{done}/{total}] {record.label} ({cost}) "
            f"elapsed {time.perf_counter() - self._t0:.1f}s"
        )
        self._stream.write("\r" + line[: self._width].ljust(self._width))
        self._stream.flush()

    def task_retried(self, record: RunRecord) -> None:
        line = f"! {record.label}: {record.status}, retrying (attempt {record.attempt})"
        self._stream.write("\r" + line[: self._width].ljust(self._width) + "\n")
        self._stream.flush()

    def sweep_end(self, stats: dict) -> None:
        self._stream.write("\n")
        self._stream.flush()


class JsonlProgress(ProgressReporter):
    """Machine-readable progress: one JSON object per event.

    Accepts a path (owned: closed by :meth:`close`) or an open text stream
    (caller-owned: only flushed), mirroring :class:`JsonlTracer`.
    """

    def __init__(self, path: str | Path | IO[str]) -> None:
        if hasattr(path, "write"):
            self._file: IO[str] = path  # type: ignore[assignment]
            self._owns = False
            self.path: Path | None = None
        else:
            self.path = Path(path)
            self._file = open(self.path, "w", encoding="utf-8")
            self._owns = True
        self._closed = False
        self.count = 0

    def _emit(self, payload: dict) -> None:
        self._file.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self.count += 1

    def sweep_start(self, total: int, cached: int, jobs: int) -> None:
        self._emit(
            {
                "event": "sweep_start",
                "total": total,
                "cached": cached,
                "jobs": jobs,
                "ts": time.time(),
            }
        )

    def task_done(self, record: RunRecord, done: int, total: int) -> None:
        self._emit(
            {
                "event": "task_done",
                "done": done,
                "total": total,
                **record.to_dict(),
            }
        )

    def task_retried(self, record: RunRecord) -> None:
        self._emit({"event": "task_retried", **record.to_dict()})

    def sweep_end(self, stats: dict) -> None:
        self._emit({"event": "sweep_end", **stats, "ts": time.time()})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._file.closed:
            return
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


# ---------------------------------------------------------------- trajectory
def trajectory(
    records: Sequence[dict],
    key_field: str,
    value_field: str = "wall_seconds",
    regression_factor: float = 1.3,
) -> list[dict]:
    """Per-key ordered series with regression flags.

    Groups ``records`` by ``records[key_field]`` preserving append order,
    and for each consecutive pair within a key computes
    ``ratio = value / previous value``; an entry is ``regressed`` when the
    ratio is ``>= regression_factor``.  Skipped: records missing the key
    or the value, cache-hit sweep cells (``cached`` truthy — their wall
    time measures a file read, not engine speed), and failed/retried
    attempt rows (their wall measures a timeout or a dying worker).
    """
    if regression_factor <= 1.0:
        raise ValueError("regression_factor must be > 1")
    last: dict[str, float] = {}
    runs: dict[str, int] = {}
    out: list[dict] = []
    for record in records:
        key = record.get(key_field)
        value = record.get(value_field)
        if key is None or not isinstance(value, (int, float)) or record.get("cached"):
            continue
        if _status(record) != "ok":
            continue
        index = runs.get(key, 0)
        runs[key] = index + 1
        prev = last.get(key)
        ratio = value / prev if prev else None
        out.append(
            {
                "key": key,
                "index": index,
                "value": float(value),
                "ratio": ratio,
                "regressed": ratio is not None and ratio >= regression_factor,
            }
        )
        last[key] = float(value)
    return out


def perf_gate(
    records: Sequence[dict],
    key_field: str,
    value_field: str = "wall_seconds",
    window: int = 5,
    regression_factor: float = 1.5,
) -> list[dict]:
    """Noise-aware perf-regression verdicts over a keyed timing log.

    Where :func:`trajectory` flags every consecutive jump (good for
    eyeballing history), the gate asks one question per key: *is the
    latest wall time a regression?*  The baseline is the **median** of up
    to ``window`` values immediately preceding the latest one — a single
    noisy historical entry cannot fake or mask a regression the way a
    last-vs-previous ratio can.  Verdict: ``regressed`` when
    ``latest >= regression_factor * median(baseline)``.

    Record filtering matches :func:`trajectory` (cache hits and
    failed/retried rows are ignored).  Keys with no prior history pass
    with ``ratio: None`` — a brand-new bench has nothing to regress
    against.  This is what ``repro report --perf`` runs against
    ``BENCH_history.jsonl`` in CI (docs/OBSERVABILITY.md).

    Rows of ``benchmark``-fixture benches also carry ``median_s``, the
    median of one call, while their ``wall_seconds`` is pytest-benchmark's
    calibrated test duration.  When gating ``wall_seconds``, a key whose
    latest row carries ``median_s`` is gated on ``median_s`` over the rows
    that carry it, if any row before the latest does; each entry's
    ``field`` names what was compared.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if regression_factor <= 1.0:
        raise ValueError("regression_factor must be > 1")
    # per key, in log order: (value_field, median_s or None)
    series: dict[str, list[tuple[float, float | None]]] = {}
    for record in records:
        key = record.get(key_field)
        value = record.get(value_field)
        if key is None or not isinstance(value, (int, float)) or record.get("cached"):
            continue
        if _status(record) != "ok":
            continue
        per_call = record.get("median_s")
        if value_field != "wall_seconds" or not isinstance(per_call, (int, float)):
            per_call = None
        series.setdefault(key, []).append((float(value), per_call))
    out: list[dict] = []
    for key, rows in series.items():
        field = value_field
        values = [value for value, _ in rows]
        per_call = [float(m) for _, m in rows if m is not None]
        if rows[-1][1] is not None and len(per_call) > 1:
            field, values = "median_s", per_call
        current = values[-1]
        baseline_values = values[max(0, len(values) - 1 - window):-1]
        if baseline_values:
            baseline = float(median(baseline_values))
            ratio = current / baseline if baseline > 0 else math.inf
            regressed = ratio >= regression_factor
        else:
            baseline = None
            ratio = None
            regressed = False
        out.append(
            {
                "key": key,
                "field": field,
                "runs": len(values),
                "value": current,
                "baseline": baseline,
                "n_baseline": len(baseline_values),
                "ratio": ratio,
                "regressed": regressed,
            }
        )
    return out
