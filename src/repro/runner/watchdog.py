"""The sweep executor: a supervised pool of persistent worker processes.

Every :func:`repro.runner.run_sweep` runs its cache misses through
:func:`run_watchdog`, at every ``jobs`` value including 1:

* **persistent workers** — up to ``jobs`` (fork-preferred) processes,
  each talking to the parent over its own duplex pipe and serving cell
  after cell; a worker is replaced only when it crashes or is killed
  for a timeout, so one in-flight cell is always attributable to
  exactly one process.  Each worker first pins every loaded OpenBLAS to
  one thread (:func:`pin_blas_threads`): the pool already runs one
  process per CPU;
* a **supervisor loop** in the parent that blocks on the worker pipes
  and process sentinels (``multiprocessing.connection.wait``) until the
  nearest cell deadline or retry backoff: a worker that dies without
  reporting (OOM kill, segfault, injected chaos) is a ``crash`` of the
  cell it held, and a cell past its optional wall-clock ``timeout`` is
  killed (terminate, then kill) and reported as a ``timeout``;
* **error classification** — worker-side exceptions are *transient*
  (worth retrying: ``OSError``/``MemoryError``, or any exception type
  carrying a truthy ``transient`` class attribute, e.g.
  :class:`repro.testkit.chaos.ChaosError`) or *poison* (deterministic
  task bugs: retrying cannot help).  Crashes, timeouts and corrupt
  results are always transient — they describe the worker, not the cell;
* a seeded, deterministic :class:`RetryPolicy` — exponential backoff with
  hash-derived jitter, so two runs of the same sweep wait the same
  delays, and a retried cell's *result* is bit-identical to a clean run
  (retry only re-executes; it never changes any simulation input);
* structured outcomes — :class:`TaskFailure` rows collected into a
  :class:`FailureReport`, and :class:`SweepError` carrying partial
  results when the caller asked failures to be fatal.

Determinism note: the executor changes *where and when* attempts run,
never any input to any simulation — the bit-identical-at-any-worker-count
contract of ``run_sweep`` extends to retried and resumed runs (asserted
in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import ctypes
import heapq
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .cache import hash_u64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SimTask, TaskResult

__all__ = [
    "TaskFailure",
    "FailureReport",
    "SweepError",
    "RetryPolicy",
    "is_transient",
    "pin_blas_threads",
    "run_watchdog",
]

#: OpenBLAS thread-count setters: the builds bundled with NumPy (64-bit
#: integers) and SciPy, then a system OpenBLAS of either kind
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """``(library, thread-count setter name)`` of each OpenBLAS loaded in
    this process; empty where the process map cannot be read (not Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        if name is not None:
            found.append((lib, name))
    return found


def pin_blas_threads() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    The pool runs one worker per CPU by default, so BLAS threads of their
    own only contend for the same cores (docs/PARALLELISM.md, "Fig 12's
    fits on the pool").  Libraries loaded later keep their own setting.
    """
    for lib, name in _loaded_openblas():
        setter = getattr(lib, name)
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def is_transient(exc: BaseException) -> bool:
    """Classify a worker-side exception: retry-worthy or poison.

    Exception types may opt in explicitly with a truthy ``transient``
    class attribute; otherwise resource-style failures (``OSError``,
    ``MemoryError``) are transient and everything else — the deterministic
    bugs retrying cannot fix — is poison.
    """
    marker = getattr(exc, "transient", None)
    if marker is not None:
        return bool(marker)
    return isinstance(exc, (OSError, MemoryError))


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    ``max_attempts`` bounds total executions of one cell (first try
    included).  The delay before attempt ``n+1`` is::

        backoff_base * backoff_factor**(n-1) * (1 + jitter * u)

    where ``u`` is a hash-derived uniform draw from ``(seed, fingerprint,
    n)`` — fully reproducible, no shared RNG stream.  ``backoff_base=0``
    disables sleeping (used by the chaos tests to retry at full speed).
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError(
                "backoff_base/jitter must be >= 0 and backoff_factor >= 1"
            )

    def delay(self, fingerprint: str, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        u = hash_u64(self.seed, fingerprint, attempt) / 2.0**64
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class TaskFailure:
    """One failed execution attempt of one sweep cell.

    ``kind`` is one of ``"crash"`` (worker died without reporting),
    ``"timeout"`` (watchdog killed it past the wall-clock limit),
    ``"corrupt"`` (worker returned a result for the wrong fingerprint)
    or ``"error"`` (worker raised; ``message`` carries ``Type: text``).
    ``transient`` says whether a retry could help; ``attempt`` is 1-based.
    ``perf`` carries the attempt's partial perf sidecar (span tree up to
    the raise) when the pool's cells ran traced
    (:func:`repro.obs.perf.run_traced`) and the worker lived long enough
    to serialize one — timing data from failed attempts lands in the
    sweep trace instead of dying with the worker.
    """

    label: str
    fingerprint: str
    kind: str
    message: str
    attempt: int
    transient: bool
    wall_seconds: float = 0.0
    worker: str = ""
    exitcode: int | None = None
    perf: dict | None = None

    def as_dict(self) -> dict:
        # the perf sidecar is bulky span data, not failure telemetry —
        # it travels via the sweep trace, so keep failure rows compact
        row = asdict(self)
        row.pop("perf")
        return row

    def describe(self) -> str:
        base = f"{self.label}: {self.kind} on attempt {self.attempt}"
        return f"{base} ({self.message})" if self.message else base


@dataclass
class FailureReport:
    """Structured outcome of a degraded sweep: what failed, what retried.

    ``failures`` holds one terminal :class:`TaskFailure` per cell that
    never produced a result; ``retries`` holds every non-terminal failed
    attempt that was retried.  A clean sweep has both lists empty.
    """

    failures: list[TaskFailure] = field(default_factory=list)
    retries: list[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def n_retried(self) -> int:
        return len(self.retries)

    def clear(self) -> None:
        """Reset in place (run_sweep refills caller-supplied reports)."""
        self.failures.clear()
        self.retries.clear()

    def as_dict(self) -> dict:
        return {
            "failures": [f.as_dict() for f in self.failures],
            "retries": [f.as_dict() for f in self.retries],
        }

    def summary(self) -> str:
        if self.ok and not self.retries:
            return "no failures"
        parts = []
        if self.failures:
            kinds: dict[str, int] = {}
            for f in self.failures:
                kinds[f.kind] = kinds.get(f.kind, 0) + 1
            detail = ", ".join(f"{k}: {n}" for k, n in sorted(kinds.items()))
            parts.append(f"{len(self.failures)} cell(s) failed ({detail})")
        if self.retries:
            parts.append(f"{len(self.retries)} attempt(s) retried")
        return "; ".join(parts)


class SweepError(RuntimeError):
    """A sweep cell failed terminally under ``on_error="raise"``.

    Carries the :class:`FailureReport` (``report``) and the partial
    results gathered before the abort (``results``, task-ordered with
    ``None`` holes) so callers can still salvage completed work.
    """

    def __init__(self, report: FailureReport, results: list) -> None:
        first = report.failures[0] if report.failures else None
        message = first.describe() if first is not None else "sweep failed"
        super().__init__(f"sweep aborted: {message} [{report.summary()}]")
        self.report = report
        self.results = results


# --------------------------------------------------------------- worker side
def _worker_main(conn, execute, chaos) -> None:
    """Serve ``(task, fingerprint, attempt)`` requests until told to stop.

    Chaos hooks (when configured) fire around the real execution:
    ``before_execute`` may crash the process, hang, or raise; a successful
    result may be corrupted by ``after_execute`` — the parent detects that
    through the fingerprint check.  A worker that dies mid-cell without
    replying (``SystemExit`` included) is classified as a crash by the
    parent.  Ctrl-C is left to the parent, which kills its workers on the
    way out; an orphaned worker (parent gone) exits on its own.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pin_blas_threads()
    name = multiprocessing.current_process().name
    parent = os.getppid()
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        task, fingerprint, attempt = request
        try:
            if chaos is not None:
                chaos.before_execute(fingerprint, attempt)
            t0 = time.perf_counter()
            result = execute(task)
            wall = time.perf_counter() - t0
            if chaos is not None:
                result = chaos.after_execute(result, fingerprint, attempt)
            reply = ("ok", result, wall, name)
        except Exception as exc:
            reply = (
                "error",
                f"{type(exc).__name__}: {exc}",
                is_transient(exc),
                name,
                # partial perf sidecar attached by obs.perf.run_traced in
                # a traced pool: the span tree up to the raise
                getattr(exc, "perf_payload", None),
            )
        try:
            conn.send(reply)
        except OSError:
            return  # parent gone


# --------------------------------------------------------------- parent side
def _mp_context():
    """Fork when available (inherits warm trace caches), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Worker:
    """One worker process, its pipe, and the cell it is running (if any)."""

    proc: multiprocessing.Process
    conn: object
    index: int = -1
    task: "SimTask | None" = None
    fingerprint: str = ""
    attempt: int = 0
    started: float = 0.0


def _kill(worker: _Worker) -> None:
    """Terminate a worker, escalating SIGTERM -> SIGKILL, and reap it."""
    proc = worker.proc
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
    proc.join(timeout=2.0)
    worker.conn.close()


def run_watchdog(
    items: Sequence[tuple[int, "SimTask", str]],
    execute: Callable,
    *,
    jobs: int,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    chaos=None,
) -> Iterator[tuple]:
    """Run task attempts on up to ``jobs`` supervised workers; yield outcomes.

    ``items`` is a sequence of ``(index, task, fingerprint)``.  Yields, in
    completion order:

    * ``("done", index, TaskResult, wall_seconds, worker, attempt)`` — the
      attempt succeeded and its result fingerprint matched;
    * ``("retry", index, TaskFailure)`` — a transient failure that will be
      re-attempted after the policy's deterministic backoff;
    * ``("failed", index, TaskFailure)`` — a terminal failure (poison, or
      retries exhausted, or no retry policy active).

    Closing the generator (including via an exception in the consuming
    loop, e.g. ``KeyboardInterrupt``) kills every busy worker and stops
    the idle ones — no process outlives the sweep.
    """
    ctx = _mp_context()
    max_attempts = retry.max_attempts if retry is not None else 1

    pending: deque = deque((i, task, fp, 1) for i, task, fp in items)
    delayed: list = []  # heap of (ready_at, tiebreak, pending-entry)
    tiebreak = 0
    idle: list[_Worker] = []
    busy: list[_Worker] = []

    def spawn() -> _Worker:
        conn, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child, execute, chaos), daemon=True
        )
        proc.start()
        child.close()
        return _Worker(proc, conn)

    def failure(w: _Worker, kind: str, message: str, transient: bool,
                worker: str = "", perf: dict | None = None) -> TaskFailure:
        return TaskFailure(
            label=w.task.label,
            fingerprint=w.fingerprint,
            kind=kind,
            message=message,
            attempt=w.attempt,
            transient=transient,
            wall_seconds=time.monotonic() - w.started,
            worker=worker or w.proc.name,
            exitcode=w.proc.exitcode,
            perf=perf,
        )

    def collect(w: _Worker) -> tuple | TaskFailure | None:
        """The finished attempt's ``(result, wall, worker)`` or failure;
        ``None`` while the cell is still running."""
        msg = None
        if w.conn.poll():
            try:
                msg = w.conn.recv()
            except (EOFError, OSError):
                pass  # the pipe closed: the worker died mid-cell
        elif w.proc.is_alive():
            if timeout is None or time.monotonic() - w.started <= timeout:
                return None
            _kill(w)
            return failure(
                w, "timeout", f"exceeded the {timeout:g}s wall-clock limit", True
            )
        if msg is None:
            _kill(w)  # reap, so exitcode is final
            return failure(
                w, "crash", f"worker died (exit code {w.proc.exitcode})", True
            )
        if msg[0] == "error":
            _, message, transient, worker, perf = msg
            return failure(w, "error", message, transient, worker, perf)
        _, result, wall, worker = msg
        if result.fingerprint != w.fingerprint:
            return failure(
                w, "corrupt", "result fingerprint does not match the task",
                True, worker, perf=getattr(result, "perf", None),
            )
        return result, wall, worker

    try:
        while pending or delayed or busy:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                pending.append(heapq.heappop(delayed)[2])
            while pending and (idle or len(busy) < jobs):
                w = idle.pop() if idle else spawn()
                if not w.proc.is_alive():  # exited while idle: replace it
                    _kill(w)
                    continue
                w.index, w.task, w.fingerprint, w.attempt = pending.popleft()
                w.started = time.monotonic()
                busy.append(w)
                try:
                    w.conn.send((w.task, w.fingerprint, w.attempt))
                except OSError:
                    pass  # died since the liveness check: collect() says crash

            wake = [delayed[0][0]] if delayed else []
            if timeout is not None:
                wake += [w.started + timeout for w in busy]
            wait_s = max(min(wake) - time.monotonic(), 0.0) if wake else None
            if not busy:
                time.sleep(wait_s)  # everything left is waiting out a backoff
                continue
            wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], wait_s)

            for w in list(busy):
                outcome = collect(w)
                if outcome is None:
                    continue
                busy.remove(w)
                if not w.conn.closed:
                    idle.append(w)
                if isinstance(outcome, tuple):
                    result, wall, worker = outcome
                    yield ("done", w.index, result, wall, worker, w.attempt)
                elif (
                    retry is not None
                    and outcome.transient
                    and w.attempt < max_attempts
                ):
                    yield ("retry", w.index, outcome)
                    ready = time.monotonic() + retry.delay(w.fingerprint, w.attempt)
                    tiebreak += 1
                    heapq.heappush(
                        delayed,
                        (ready, tiebreak,
                         (w.index, w.task, w.fingerprint, w.attempt + 1)),
                    )
                else:
                    yield ("failed", w.index, outcome)
    finally:
        for w in busy:
            _kill(w)
        for w in idle:
            try:
                w.conn.send(None)
            except OSError:
                pass
        for w in idle:
            w.proc.join(timeout=2.0)
            _kill(w)
