"""Shared test fixtures: a hand-rolled per-test wall-clock timeout, and
the frozen output of the former reference EASY, conservative and fault
loops.

CI must fail fast on a hung test (e.g. a deadlocked ``multiprocessing``
pool in the sweep-runner tests) instead of burning the job's whole
``timeout-minutes`` budget.  ``pytest-timeout`` is not part of this
project's dependency set, so the guard is a plain ``SIGALRM`` fixture:

* ``REPRO_TEST_TIMEOUT`` (seconds, default 300) bounds every test;
  ``0`` disables the guard entirely;
* a single test may override its own budget with
  ``@pytest.mark.timeout_s(N)`` (e.g. a slow differential-fuzz test) so
  one outlier never forces a global ``REPRO_TEST_TIMEOUT`` bump; the
  ``REPRO_TEST_TIMEOUT=0`` kill-switch still wins;
* only armed on Unix in the main thread (``signal.alarm`` is a no-op
  requirement everywhere pytest runs tests elsewhere);
* nested alarms are not supported — the fixture restores the previous
  handler on teardown, which is enough for pytest's flat test loop.

``reference_golden`` maps each case of
``tests/goldens/reference_streams.jsonl`` to its value: the event
streams and metrics payloads the former readable reference loops
emitted for the identity tests' inputs — the EASY loop's cases, the
conservative loop's under ``conservative/...`` and the fault loop's
under ``faults/...`` — each written by its loop in the commit before
that loop was deleted (``git log --
tests/goldens/reference_streams.jsonl``).  The identity tests compare
the engines against this record rather than against the engines
themselves, so it is never regenerated from an engine.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path

import pytest

_DEFAULT_TIMEOUT = 300


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout_s(seconds): per-test wall-clock limit overriding the "
        "REPRO_TEST_TIMEOUT default (REPRO_TEST_TIMEOUT=0 disables all "
        "timeouts, including marked ones)",
    )


def _timeout_seconds(request) -> int:
    try:
        env = int(os.environ.get("REPRO_TEST_TIMEOUT", str(_DEFAULT_TIMEOUT)))
    except ValueError:
        env = _DEFAULT_TIMEOUT
    if env <= 0:
        return 0  # global kill-switch
    marker = request.node.get_closest_marker("timeout_s")
    if marker is not None and marker.args:
        try:
            return max(int(marker.args[0]), 0)
        except (TypeError, ValueError):
            return env
    return env


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    seconds = _timeout_seconds(request)
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded {seconds}s wall-clock limit "
            f"(REPRO_TEST_TIMEOUT / @pytest.mark.timeout_s): "
            f"{request.node.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def reference_golden() -> dict:
    path = Path(__file__).parent / "goldens" / "reference_streams.jsonl"
    rows = map(json.loads, path.read_text().splitlines())
    return {row["case"]: row["value"] for row in rows}
