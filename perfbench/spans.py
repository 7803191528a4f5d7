"""In-memory span recording and per-layer self time for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
traced run swaps a layer's public functions, in the namespace of the
module that calls them, for wrappers that open a span around the call.
Nothing under ``src/`` changes, and the untraced run calls the original
functions.

A span's layer is the first dotted component of its name (``core`` for
``core.geometry``).  A layer's self time is its spans' time minus the part
of each span that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

#: name of the span the benchmark opens around one whole pass
ROOT = "bench.pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list


class Recorder:
    """Collects spans of one thread in memory; nothing is written until
    the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NullRecorder:
    """Recorder stand-in for untraced passes: spans cost one call."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def totals(spans: list[Span], key=lambda name: name) -> dict[str, float]:
    """Self time summed per ``key(span name)``."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[key(s.name)] += own
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def boundary_functions(module) -> list[tuple[str, object]]:
    """Functions of other ``repro`` modules that ``module`` calls by name.

    These are the layer boundaries visible from ``module``: its imports of
    another module's public functions.
    """
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("repro.")
        and obj.__module__ != module.__name__
    ]


def span_name(fn) -> str:
    """``core.geometry`` for a function defined in ``repro.core.geometry``."""
    return fn.__module__.removeprefix("repro.")
