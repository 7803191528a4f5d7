"""One options object for sweep execution, and the CLI flags that build it.

Both command-line interfaces declare the runner flags through
:func:`add_run_arguments` and turn them into a :class:`RunOptions` with
:func:`run_options_from_args`, so the two flag sets cannot drift apart.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .cache import ResultCache
from .journal import SweepJournal
from .watchdog import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.perf import PerfConfig
    from ..testkit.chaos import ChaosConfig

__all__ = [
    "ON_ERROR_POLICIES",
    "RunOptions",
    "add_run_arguments",
    "available_cpus",
    "run_options_from_args",
]

#: accepted values for the ``on_error`` policy
ON_ERROR_POLICIES = ("raise", "skip", "retry")


def available_cpus() -> int:
    """CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RunOptions:
    """Execution settings of a sweep (docs/PARALLELISM.md).

    * ``jobs`` — worker processes (every cell runs in a worker, even at 1;
      default :func:`available_cpus`);
    * ``cache`` — a :class:`ResultCache` or its directory;
    * ``timeout`` — per-cell wall-clock limit in seconds (``None``: none);
      a cell past it is killed and classified as a transient ``timeout``;
    * ``on_error`` — what a *terminal* cell failure does: ``"raise"``
      aborts with :class:`SweepError` carrying the partial results,
      ``"skip"`` records it and leaves ``None`` at that cell's position,
      ``"retry"`` additionally retries transient failures
      (crash/timeout/corrupt/transient errors) before giving up;
    * ``retry`` — a :class:`RetryPolicy` (seeded, deterministic backoff),
      or an int shorthand for its ``max_attempts``; activates retries
      under any ``on_error``, and ``on_error="retry"`` implies
      ``RetryPolicy()``;
    * ``journal`` — a :class:`SweepJournal` or its path: every completed
      cell is appended durably, and cells already journaled are replayed
      without recomputation, so an interrupted sweep resumes
      bit-identical to an uninterrupted run;
    * ``chaos`` — a :class:`repro.testkit.chaos.ChaosConfig` injecting
      seeded worker faults (crash/hang/error/corrupt), the deterministic
      test harness for all of the above;
    * ``perf`` — a :class:`repro.obs.perf.PerfConfig` tracing the sweep.
    """

    jobs: int = field(default_factory=available_cpus)
    cache: ResultCache | str | Path | None = None
    timeout: float | None = None
    on_error: str = "raise"
    retry: RetryPolicy | int | None = None
    journal: SweepJournal | str | Path | None = None
    chaos: "ChaosConfig | None" = None
    perf: "PerfConfig | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        retry = self.retry
        if isinstance(retry, int):
            retry = RetryPolicy(max_attempts=retry)
        elif retry is None and self.on_error == "retry":
            retry = RetryPolicy()
        object.__setattr__(self, "retry", retry)

    @classmethod
    def resolve(cls, options: "RunOptions | None", **fields) -> "RunOptions":
        """``options`` (default ``RunOptions()``) with every field given
        as non-``None`` replaced — how the sweep experiments fold their
        ``jobs``/``cache_dir`` keywords into their ``options``."""
        given = {k: v for k, v in fields.items() if v is not None}
        return replace(options or cls(), **given)


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the runner and crash-safety flags on ``parser``."""
    runner = parser.add_argument_group("parallel runner (docs/PARALLELISM.md)")
    runner.add_argument(
        "--jobs",
        type=int,
        default=available_cpus(),
        help="worker processes for sweeps and Fig 12's model fits (default: "
        "the CPUs available to this process, %(default)s here; results are "
        "bit-identical at any worker count)",
    )
    runner.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="on-disk result cache of sweep cells (Fig 12's model fits are "
        "not cached); entries live at "
        "<cache-dir>/<2-hex-prefix>/<sha256-fingerprint>.json and are "
        "invalidated automatically when engine code changes",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir: recompute every cell",
    )
    crash = parser.add_argument_group(
        "crash safety (docs/PARALLELISM.md, 'Crash-safe sweeps')"
    )
    crash.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock limit; the watchdog kills cells past it "
        "(a timeout is transient: retried under --on-error retry)",
    )
    crash.add_argument(
        "--on-error",
        choices=ON_ERROR_POLICIES,
        default="raise",
        help="terminal cell failures: abort the sweep (raise, default), "
        "record and keep going (skip), or retry transient failures with "
        "seeded backoff first (retry)",
    )
    crash.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per cell (first try included); implies retries "
        "for transient failures under any --on-error",
    )
    crash.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="S",
        help="base delay before a retry; doubles per attempt with "
        "deterministic jitter",
    )
    crash.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help="append-only journal of completed sweep cells (Fig 12's model "
        "fits are not journaled); an interrupted sweep re-run with --resume "
        "replays them without recomputing",
    )
    crash.add_argument(
        "--resume",
        action="store_true",
        help="replay cells already completed in --journal (bit-identical "
        "to an uninterrupted run)",
    )
    crash.add_argument(
        "--fsync",
        action="store_true",
        help="fsync cache entries and journal lines to stable storage "
        "(power-loss durability; default trusts the OS page cache)",
    )


def run_options_from_args(args: argparse.Namespace) -> RunOptions:
    """The :class:`RunOptions` that :func:`add_run_arguments`' flags ask for.

    Raises ``ValueError`` naming the offending flag.  Opens the result
    cache and the journal (honouring ``--fsync``); an existing journal
    with completed cells is refused unless ``--resume`` acknowledges it.
    The caller closes ``options.journal``.
    """
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise ValueError("--task-timeout must be positive")
    if args.task_retries is not None and args.task_retries < 1:
        raise ValueError("--task-retries must be >= 1")
    if args.retry_backoff < 0:
        raise ValueError("--retry-backoff must be >= 0")
    if args.resume and args.journal is None:
        raise ValueError("--resume needs --journal PATH to resume from")
    retry = None
    if args.task_retries is not None or args.on_error == "retry":
        retry = RetryPolicy(
            max_attempts=args.task_retries or RetryPolicy.max_attempts,
            backoff_base=args.retry_backoff,
        )
    cache = None
    if args.cache_dir is not None and not args.no_cache:
        cache = ResultCache(args.cache_dir, fsync=args.fsync)
    journal = None
    if args.journal is not None:
        journal = SweepJournal(args.journal, fsync=args.fsync)
        if not args.resume and journal.completed():
            journal.close()
            raise ValueError(
                f"journal {args.journal} already holds completed cells; "
                "pass --resume to replay them, or remove the file to start "
                "over"
            )
    return RunOptions(
        jobs=args.jobs,
        cache=cache,
        timeout=args.task_timeout,
        on_error=args.on_error,
        retry=retry,
        journal=journal,
    )
