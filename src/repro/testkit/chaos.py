"""Seeded chaos harness for the sweep runner — fault injection for the harness itself.

:mod:`repro.sched.faults` makes the *simulated* cluster imperfect; this
module does the same to the *infrastructure that runs the simulations*.
A :class:`ChaosConfig` passed to :func:`repro.runner.run_sweep` injects
deterministic faults into worker attempts:

* ``crash_p`` — the worker process dies with ``os._exit`` (no cleanup,
  no message: exactly what an OOM kill or segfault looks like from the
  parent);
* ``hang_p`` — the worker sleeps past any reasonable deadline, exercising
  the watchdog's per-task timeout kill;
* ``error_p`` — the worker raises :class:`ChaosError`, a *transient*
  exception (``transient = True``), exercising the retry classifier;
* ``corrupt_result_p`` — the worker completes but returns a result whose
  fingerprint does not match the task, exercising the parent's result
  integrity check;
* ``cache_corrupt_p`` — the freshly written
  :class:`~repro.runner.cache.ResultCache` entry is clobbered on disk,
  exercising quarantine-on-read in a later run.

Every decision is a pure hash draw over ``(seed, fingerprint, attempt)``
— :func:`repro.runner.cache.hash_u64`, the draw behind
:func:`repro.runner.derive_seed` — so a chaos schedule is reproducible
bit-for-bit, independent of worker count, completion order, or how many
other cells fault.  Crucially, chaos only decides *whether an attempt
fails*, never what a successful attempt computes: with retries enabled, a
chaos-ridden sweep's results are **bit-identical to a clean serial run**
(the acceptance property in ``tests/test_chaos.py`` and the CI chaos
smoke step).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..runner.cache import hash_u64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from ..runner.cache import ResultCache
    from ..runner.sweep import TaskResult

__all__ = ["ChaosConfig", "ChaosError", "NO_CHAOS"]

#: worker exit code for injected crashes, so a crash failure row
#: (``TaskFailure.exitcode``) shows it was injected
CHAOS_EXIT_CODE = 17


class ChaosError(RuntimeError):
    """Injected transient worker failure (always safe to retry)."""

    #: consumed by :func:`repro.runner.watchdog.is_transient`
    transient = True


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection probabilities for sweep workers.

    ``crash_p + hang_p + error_p`` must not exceed 1 — the three
    pre-execution faults are mutually exclusive per attempt (one draw,
    stacked thresholds).  ``corrupt_result_p`` and ``cache_corrupt_p``
    draw independently: they fire on attempts that *succeed*.
    ``hang_seconds`` should comfortably exceed the sweep's task timeout —
    a hang is only observable through the watchdog killing it.
    """

    crash_p: float = 0.0
    hang_p: float = 0.0
    error_p: float = 0.0
    corrupt_result_p: float = 0.0
    cache_corrupt_p: float = 0.0
    seed: int = 0
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        for name in (
            "crash_p", "hang_p", "error_p", "corrupt_result_p", "cache_corrupt_p"
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.crash_p + self.hang_p + self.error_p > 1.0 + 1e-12:
            raise ValueError("crash_p + hang_p + error_p must not exceed 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    # ----------------------------------------------------------- draws
    def _draw(self, *parts) -> float:
        """Uniform ``[0, 1)`` from ``(seed, *parts)`` — pure, order-free."""
        return hash_u64(self.seed, *parts) / 2.0**64

    def fault_for(self, fingerprint: str, attempt: int) -> str | None:
        """The pre-execution fault this attempt draws, if any.

        Exposed separately so tests can predict a chaos schedule without
        running anything.
        """
        u = self._draw(fingerprint, attempt, "fault")
        if u < self.crash_p:
            return "crash"
        if u < self.crash_p + self.hang_p:
            return "hang"
        if u < self.crash_p + self.hang_p + self.error_p:
            return "error"
        return None

    def corrupts_result(self, fingerprint: str, attempt: int) -> bool:
        return self._draw(fingerprint, attempt, "corrupt") < self.corrupt_result_p

    def corrupts_cache(self, fingerprint: str) -> bool:
        return self._draw(fingerprint, "cache") < self.cache_corrupt_p

    # ----------------------------------------------------- worker hooks
    def before_execute(self, fingerprint: str, attempt: int) -> None:
        """Worker-side pre-execution hook: maybe crash, hang, or raise."""
        fault = self.fault_for(fingerprint, attempt)
        if fault is None:
            return
        if fault == "crash":
            os._exit(CHAOS_EXIT_CODE)
        if fault == "hang":
            deadline = time.monotonic() + self.hang_seconds
            while time.monotonic() < deadline:  # pragma: no cover - killed
                time.sleep(min(self.hang_seconds, 1.0))
            raise ChaosError(
                f"injected hang outlived hang_seconds={self.hang_seconds:g} "
                "without a watchdog kill"
            )
        raise ChaosError(
            f"injected transient failure (attempt {attempt})"
        )

    def after_execute(
        self, result: "TaskResult", fingerprint: str, attempt: int
    ) -> "TaskResult":
        """Worker-side post-execution hook: maybe corrupt the result.

        Corruption flips the result's fingerprint so the parent's
        integrity check (result fingerprint == task fingerprint) catches
        it — modelling a worker that computed *something*, just not the
        requested cell.
        """
        if not self.corrupts_result(fingerprint, attempt):
            return result
        return dataclasses.replace(result, fingerprint=result.fingerprint[::-1])

    # ----------------------------------------------------- parent hooks
    def corrupt_cache_entry(
        self, cache: "ResultCache", fingerprint: str
    ) -> "Path | None":
        """Parent-side hook: clobber a just-written cache entry on disk.

        Returns the damaged path, or ``None`` when this fingerprint's draw
        spares it.  The damage (a torn, non-JSON prefix) is exactly what a
        crash mid-write past the atomic-rename guarantees would leave, and
        is what :class:`~repro.runner.cache.ResultCache` quarantines.
        """
        if not self.corrupts_cache(fingerprint):
            return None
        path = cache._path(fingerprint)
        if not path.exists():
            return None
        path.write_text('{"summary": {"tr', encoding="utf-8")
        return path


#: inert configuration: every probability zero (handy default for tests)
NO_CHAOS = ChaosConfig()
