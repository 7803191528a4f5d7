"""Shared benchmark configuration.

Every figure/table bench regenerates its paper artifact end-to-end at a
reduced scale (``BENCH_DAYS`` of synthetic workload, fixed seed) so the
suite finishes in minutes.  The trace cache in ``repro.experiments.common``
is pre-warmed here so benches measure analysis cost, not generation; the
benches of memoized analyses clear the memo before each round.

Opt-in perf trajectory: set ``BENCH_OUT`` to append one JSONL record per
passing bench (nodeid, wall seconds, scale, ``code_version()``) — point it
at a file, or at a directory to get ``<dir>/BENCH_history.jsonl``.  The
history accumulates across runs; ``python -m repro.cli report`` renders it
and flags benches >= 1.3x their previous recorded run.
"""

import os
import time
from pathlib import Path

import pytest

from repro.experiments.common import get_traces

#: synthetic window used by all figure benches
BENCH_DAYS = 6.0
BENCH_SEED = 0


@pytest.fixture(scope="session", autouse=True)
def warm_traces():
    """Generate the shared per-system traces once per benchmark session."""
    return get_traces(BENCH_DAYS, BENCH_SEED)


def fresh_analyses() -> None:
    """Drop the analyses memoized on the shared traces, so that every round
    of a figure bench computes its figure (docs/PERFORMANCE.md,
    "Characterization")."""
    for trace in get_traces(BENCH_DAYS, BENCH_SEED).values():
        trace.jobs = trace.jobs  # assigning ``jobs`` drops the memo


def _bench_history_path() -> Path | None:
    out = os.environ.get("BENCH_OUT")
    if not out:
        return None
    path = Path(out)
    if path.is_dir() or (not path.suffix and not path.exists()):
        path = path / "BENCH_history.jsonl"
    return path


def pytest_runtest_logreport(report):
    """Append passing bench timings to the ``BENCH_OUT`` history."""
    if report.when != "call" or not report.passed:
        return
    path = _bench_history_path()
    if path is None:
        return
    from repro.obs import RunRegistry
    from repro.runner import code_version

    record = {
        "bench": report.nodeid,
        "wall_seconds": float(report.duration),
        "days": BENCH_DAYS,
        "seed": BENCH_SEED,
        "code": code_version(),
        "ts": time.time(),
    }
    # record_property() values (e.g. the fast-engine speedup ratio) ride
    # along so the history keeps measured facts, not just durations
    for key, value in getattr(report, "user_properties", ()) or ():
        record.setdefault(str(key), value)
    # RunRegistry gives atomic single-line appends, so parallel bench
    # invocations sharing one history file cannot interleave records
    with RunRegistry(path) as registry:
        registry.append(record)
