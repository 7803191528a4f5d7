"""Event tracers: the sink side of the observability layer.

A :class:`Tracer` receives the engines' typed events
(:mod:`repro.obs.events`).  Three backends ship:

* :class:`NullTracer` — the default.  Its ``enabled`` flag is False, which
  the engines read *once* to skip event construction entirely, so an
  uninstrumented run pays only a handful of attribute lookups
  (``benchmarks/test_bench_obs_overhead.py`` keeps that claim honest);
* :class:`JsonlTracer` — appends one JSON object per event to a file,
  the interchange format of ``repro.cli simulate --trace-out`` and the
  timeline tooling in :mod:`repro.obs.timeline`;
* :class:`RingBufferTracer` — keeps the last ``capacity`` events in
  memory; the cheap always-on flight recorder for experiments and tests.

All tracers are context managers (``close`` flushes file-backed ones).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO

from .events import make_event

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlTracer",
    "RingBufferTracer",
]


class Tracer:
    """Base event sink; subclasses override :meth:`emit`.

    ``enabled`` is a *class-level* fast-path flag: engines hoist
    ``tracer.emit`` into a local only when it is True and otherwise never
    touch the tracer again for the whole run.
    """

    enabled: bool = True

    def emit(self, kind: str, t: float, job: int = -1, **ctx) -> None:
        """Record one event (see :func:`repro.obs.events.make_event`)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any backing resources (idempotent)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullTracer(Tracer):
    """The do-nothing default; ``enabled`` is False."""

    enabled = False

    def emit(self, kind: str, t: float, job: int = -1, **ctx) -> None:
        pass


#: shared no-op instance used as the engines' default sink
NULL_TRACER = NullTracer()


class JsonlTracer(Tracer):
    """Write events as JSON Lines to ``path`` (or an open text stream).

    The caller owns directory creation (``repro.cli`` validates parents
    and reports a readable error); a missing parent here raises the
    underlying :class:`FileNotFoundError`.
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
        self.count = 0

    def emit(self, kind: str, t: float, job: int = -1, **ctx) -> None:
        record = make_event(kind, t, job, **ctx)
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.count += 1

    def close(self) -> None:
        """Flush buffered events; close the file only when we opened it.

        Caller-supplied streams are flushed, not closed — the caller may
        still be writing other data — but without the flush the tail of
        the event log could sit in Python's buffer forever.  Idempotent,
        and safe after the caller has already closed their own stream.
        """
        if self._file.closed:
            return
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


class RingBufferTracer(Tracer):
    """Keep the most recent ``capacity`` events in memory.

    ``dropped`` counts events that fell off the front; ``events`` returns
    the retained window as a list of dicts.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = int(capacity)
        self._buffer: deque[dict] = deque(maxlen=self.capacity)
        self.count = 0

    def emit(self, kind: str, t: float, job: int = -1, **ctx) -> None:
        self._buffer.append(make_event(kind, t, job, **ctx))
        self.count += 1

    @property
    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        return list(self._buffer)

    @property
    def dropped(self) -> int:
        """Events evicted because the buffer was full."""
        return max(self.count - len(self._buffer), 0)
