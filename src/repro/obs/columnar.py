"""Columnar (structure-of-arrays) event recording.

The readable reference loops emit one typed dict per event through a
``Tracer`` (see :mod:`repro.obs.tracer`).  That is perfect for a
readable Python loop and hopeless for the vectorized fast engine,
whose hot path must not build a dict per decision.  This module closes
the gap with :class:`ColumnarRecorder`: events are buffered as flat,
preallocated NumPy columns (int8 kind codes, float64 ``t``, int64
``job``, int32 ``free``/``cores``, kind-specific extras) with amortized
doubling growth, appended either one row at a time (``emit`` — the
standard ``Tracer`` protocol, so any engine can write into a recorder)
or in bulk (``append_rows`` — the API the fast engine's batched event
drain uses).

Decoding is exact, not approximate: :meth:`ColumnarRecorder.to_events`
reproduces the *identical* dict stream — same kinds, same fields, same
key order, same float values — that a per-event ``emit`` hands to
``JsonlTracer``, so ``check_events``, ``utilization_series``,
``render_timeline`` and :mod:`repro.obs.analyze` work unchanged on
either source.  Events that do not fit the five hot-path layouts
(``run_start``/``run_end``, fault-engine events, hot kinds carrying
extra fields such as ``attempt``) fall back to an *overflow* side list
that remembers its position in the columnar stream, so arbitrary
traces — including fault-engine runs — round-trip losslessly.

``save``/``load`` persist the whole recording as a single ``.npz``
(columns as binary float64/ints — bit-exact — plus a JSON metadata
blob for the overflow events and the outcome-label table).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import events as ev
from .events import make_event

__all__ = ["ColumnarRecorder", "KIND_CODE", "CODE_KIND"]

# Stable kind <-> int8 code table.  Codes are part of the .npz format;
# append, never renumber.
KIND_CODE = {
    ev.RUN_START: 0,
    ev.RUN_END: 1,
    ev.SUBMIT: 2,
    ev.START: 3,
    ev.FINISH: 4,
    ev.RESERVATION: 5,
    ev.BACKFILL: 6,
    ev.NODE_FAIL: 7,
    ev.NODE_REPAIR: 8,
    ev.RETRY: 9,
    ev.CHECKPOINT: 10,
}
CODE_KIND = {code: kind for kind, code in KIND_CODE.items()}

# The canonical context-key tuples of the five hot-path kinds, in the
# exact order a per-event emitter passes them to ``Tracer.emit``.  An
# emit whose keys match one of these (and whose job id is >= 0) is
# encoded columnar; anything else goes to the overflow list.
_HOT_KEYS = {
    ev.SUBMIT: ("submitted", "cores", "queue", "user"),
    ev.START: ("cores", "free", "queue", "wait"),
    ev.FINISH: ("cores", "free", "outcome"),
    ev.RESERVATION: ("shadow", "extra", "queue", "free"),
    ev.BACKFILL: ("cores", "fits_window", "fits_extra", "shadow", "limit"),
}

_FORMAT_VERSION = 1


class ColumnarRecorder:
    """Structure-of-arrays event buffer implementing the Tracer protocol.

    Column layout (one row per hot-path event)::

        kind  int8     KIND_CODE of the event kind
        t     float64  event timestamp
        job   int64    job id
        i0    int32    submit: cores   start: cores  finish: cores
                       reservation: extra            backfill: cores
        i1    int32    submit: queue   start: free   finish: free
                       reservation: queue            backfill: flag bits
                                                     (1=fits_window, 2=fits_extra)
        i2    int64    submit: user    start: queue  finish: outcome code
                       reservation: free             backfill: unused
        f0    float64  submit: submitted  start: wait
                       reservation: shadow            backfill: shadow
        f1    float64  backfill: limit   (unused elsewhere)

    Parameters
    ----------
    path:
        Optional ``.npz`` destination; when set, :meth:`close` saves
        there (so the recorder drops into CLI ``--trace-out`` plumbing
        exactly like ``JsonlTracer``).
    capacity:
        Initial row capacity; columns double as needed.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None, capacity: int = 1024):
        self.path = Path(path) if path is not None else None
        cap = max(int(capacity), 16)
        self._n = 0
        self._kind = np.empty(cap, dtype=np.int8)
        self._t = np.empty(cap, dtype=np.float64)
        self._job = np.empty(cap, dtype=np.int64)
        self._i0 = np.empty(cap, dtype=np.int32)
        self._i1 = np.empty(cap, dtype=np.int32)
        self._i2 = np.empty(cap, dtype=np.int64)
        self._f0 = np.empty(cap, dtype=np.float64)
        self._f1 = np.empty(cap, dtype=np.float64)
        # (position in the columnar stream, fully-built event dict)
        self._overflow: list[tuple[int, dict]] = []
        self._outcomes: list[str] = []
        self._outcome_code: dict[str, int] = {}

    # -- growth --------------------------------------------------------

    def _reserve(self, n: int) -> None:
        cap = self._kind.shape[0]
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        for name in ("_kind", "_t", "_job", "_i0", "_i1", "_i2", "_f0", "_f1"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def outcome_code(self, label: str) -> int:
        """Intern a finish-outcome label, returning its stable int code."""
        code = self._outcome_code.get(label)
        if code is None:
            code = len(self._outcomes)
            self._outcome_code[label] = code
            self._outcomes.append(label)
        return code

    # -- append --------------------------------------------------------

    @property
    def count(self) -> int:
        """Total recorded events (columnar rows + overflow events)."""
        return self._n + len(self._overflow)

    def append_rows(self, rows: Sequence[tuple]) -> None:
        """Bulk-append pre-encoded ``(kind, t, job, i0, i1, i2, f0, f1)``
        rows — the fast engine stages tuples in a plain list and flushes
        them here, so the per-event hot-path cost is one tuple + one
        ``list.append``."""
        k = len(rows)
        if not k:
            return
        n0 = self._n
        self._reserve(n0 + k)
        kind, t, job, i0, i1, i2, f0, f1 = zip(*rows)
        sl = slice(n0, n0 + k)
        self._kind[sl] = np.fromiter(kind, dtype=np.int8, count=k)
        self._t[sl] = np.fromiter(t, dtype=np.float64, count=k)
        self._job[sl] = np.fromiter(job, dtype=np.int64, count=k)
        self._i0[sl] = np.fromiter(i0, dtype=np.int32, count=k)
        self._i1[sl] = np.fromiter(i1, dtype=np.int32, count=k)
        self._i2[sl] = np.fromiter(i2, dtype=np.int64, count=k)
        self._f0[sl] = np.fromiter(f0, dtype=np.float64, count=k)
        self._f1[sl] = np.fromiter(f1, dtype=np.float64, count=k)
        self._n = n0 + k

    def append_arrays(self, kind, t, job, i0, i1, i2, f0, f1) -> None:
        """Bulk-append full column blocks (stream-ordered, equal-length
        arrays) — the fast engine's vectorized flush lands here: one
        slice assignment per column instead of per-event Python work."""
        k = len(kind)
        if not k:
            return
        n0 = self._n
        self._reserve(n0 + k)
        sl = slice(n0, n0 + k)
        self._kind[sl] = kind
        self._t[sl] = t
        self._job[sl] = job
        self._i0[sl] = i0
        self._i1[sl] = i1
        self._i2[sl] = i2
        self._f0[sl] = f0
        self._f1[sl] = f1
        self._n = n0 + k

    def append_batch(
        self,
        kind: str,
        t,
        job,
        i0=0,
        i1=0,
        i2=0,
        f0=0.0,
        f1=0.0,
    ) -> None:
        """Vectorized append: one kind, array-valued fields.

        ``t``/``job``/``i0``.. accept NumPy arrays or scalars
        (broadcast); rows land in argument order."""
        job = np.asarray(job, dtype=np.int64)
        k = job.shape[0] if job.ndim else 1
        job = np.broadcast_to(job, (k,))
        n0 = self._n
        self._reserve(n0 + k)
        sl = slice(n0, n0 + k)
        self._kind[sl] = KIND_CODE[kind]
        self._t[sl] = t
        self._job[sl] = job
        self._i0[sl] = i0
        self._i1[sl] = i1
        self._i2[sl] = i2
        self._f0[sl] = f0
        self._f1[sl] = f1
        self._n = n0 + k

    def emit(self, kind: str, t: float, job: int = -1, **ctx) -> None:
        """Scalar Tracer-protocol append.

        Hot-path kinds with the canonical field set are encoded into the
        columns; everything else is kept verbatim in the overflow list at
        its stream position."""
        keys = _HOT_KEYS.get(kind)
        if keys is not None and job >= 0 and tuple(ctx) == keys:
            i = self._n
            self._reserve(i + 1)
            self._kind[i] = KIND_CODE[kind]
            self._t[i] = t
            self._job[i] = job
            if kind == ev.SUBMIT:
                row = (ctx["cores"], ctx["queue"], ctx["user"], ctx["submitted"], 0.0)
            elif kind == ev.START:
                row = (ctx["cores"], ctx["free"], ctx["queue"], ctx["wait"], 0.0)
            elif kind == ev.FINISH:
                row = (
                    ctx["cores"],
                    ctx["free"],
                    self.outcome_code(ctx["outcome"]),
                    0.0,
                    0.0,
                )
            elif kind == ev.RESERVATION:
                row = (ctx["extra"], ctx["queue"], ctx["free"], ctx["shadow"], 0.0)
            else:  # BACKFILL
                row = (
                    ctx["cores"],
                    (1 if ctx["fits_window"] else 0)
                    | (2 if ctx["fits_extra"] else 0),
                    0,
                    ctx["shadow"],
                    ctx["limit"],
                )
            self._i0[i], self._i1[i], self._i2[i], self._f0[i], self._f1[i] = row
            self._n = i + 1
        else:
            self._overflow.append((self._n, make_event(kind, t, job, **ctx)))

    # -- decode --------------------------------------------------------

    def to_events(self) -> list[dict]:
        """Decode back to the typed dict stream ``Tracer.emit`` receives.

        Field names, key order and value types match ``Tracer.emit``'s
        output exactly, so ``json.dumps`` of a decoded event is byte-
        identical to the reference ``JsonlTracer`` line."""
        n = self._n
        kind = self._kind[:n].tolist()
        t = self._t[:n].tolist()
        job = self._job[:n].tolist()
        i0 = self._i0[:n].tolist()
        i1 = self._i1[:n].tolist()
        i2 = self._i2[:n].tolist()
        f0 = self._f0[:n].tolist()
        f1 = self._f1[:n].tolist()
        outcomes = self._outcomes
        c_sub = KIND_CODE[ev.SUBMIT]
        c_start = KIND_CODE[ev.START]
        c_fin = KIND_CODE[ev.FINISH]
        c_res = KIND_CODE[ev.RESERVATION]
        out: list[dict] = []
        overflow = self._overflow
        oi, n_over = 0, len(overflow)
        for i in range(n):
            while oi < n_over and overflow[oi][0] <= i:
                out.append(dict(overflow[oi][1]))
                oi += 1
            c = kind[i]
            if c == c_sub:
                out.append(
                    {
                        "kind": ev.SUBMIT,
                        "t": t[i],
                        "job": job[i],
                        "submitted": f0[i],
                        "cores": i0[i],
                        "queue": i1[i],
                        "user": i2[i],
                    }
                )
            elif c == c_start:
                out.append(
                    {
                        "kind": ev.START,
                        "t": t[i],
                        "job": job[i],
                        "cores": i0[i],
                        "free": i1[i],
                        "queue": i2[i],
                        "wait": f0[i],
                    }
                )
            elif c == c_fin:
                out.append(
                    {
                        "kind": ev.FINISH,
                        "t": t[i],
                        "job": job[i],
                        "cores": i0[i],
                        "free": i1[i],
                        "outcome": outcomes[i2[i]],
                    }
                )
            elif c == c_res:
                out.append(
                    {
                        "kind": ev.RESERVATION,
                        "t": t[i],
                        "job": job[i],
                        "shadow": f0[i],
                        "extra": i0[i],
                        "queue": i1[i],
                        "free": i2[i],
                    }
                )
            else:  # BACKFILL
                out.append(
                    {
                        "kind": ev.BACKFILL,
                        "t": t[i],
                        "job": job[i],
                        "cores": i0[i],
                        "fits_window": bool(i1[i] & 1),
                        "fits_extra": bool(i1[i] & 2),
                        "shadow": f0[i],
                        "limit": f1[i],
                    }
                )
        for pos, event in overflow[oi:]:
            out.append(dict(event))
        return out

    def replay(self, tracer) -> None:
        """Re-emit the decoded stream into another Tracer.

        ``kwargs`` preserve insertion order, so a ``JsonlTracer`` replay
        target writes bytes identical to a live reference-engine run."""
        for event in self.to_events():
            event = dict(event)
            kind = event.pop("kind")
            t = event.pop("t")
            job = event.pop("job", -1)
            tracer.emit(kind, t, job, **event)

    def to_jsonl(self, path: str | Path) -> int:
        """Write the decoded stream as JSONL; returns the event count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.to_events():
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
                n += 1
        return n

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Persist columns + overflow to a single ``.npz`` file."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and recorder has no default path")
        n = self._n
        meta = json.dumps(
            {
                "version": _FORMAT_VERSION,
                "outcomes": self._outcomes,
                "overflow": [[pos, event] for pos, event in self._overflow],
            }
        )
        with open(target, "wb") as fh:
            np.savez(
                fh,
                kind=self._kind[:n],
                t=self._t[:n],
                job=self._job[:n],
                i0=self._i0[:n],
                i1=self._i1[:n],
                i2=self._i2[:n],
                f0=self._f0[:n],
                f1=self._f1[:n],
                meta=np.asarray(meta),
            )
        return target

    @classmethod
    def load(cls, path: str | Path) -> "ColumnarRecorder":
        """Load a recording previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta.get("version") != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported columnar trace version: {meta.get('version')!r}"
                )
            rec = cls(capacity=max(int(data["kind"].shape[0]), 16))
            n = int(data["kind"].shape[0])
            rec._kind[:n] = data["kind"]
            rec._t[:n] = data["t"]
            rec._job[:n] = data["job"]
            rec._i0[:n] = data["i0"]
            rec._i1[:n] = data["i1"]
            rec._i2[:n] = data["i2"]
            rec._f0[:n] = data["f0"]
            rec._f1[:n] = data["f1"]
            rec._n = n
        rec._overflow = [(int(pos), event) for pos, event in meta["overflow"]]
        rec._outcomes = list(meta["outcomes"])
        rec._outcome_code = {s: i for i, s in enumerate(rec._outcomes)}
        return rec

    # -- context / lifecycle -------------------------------------------

    def close(self) -> None:
        if self.path is not None:
            self.save(self.path)

    def __enter__(self) -> "ColumnarRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRecorder(rows={self._n}, overflow={len(self._overflow)},"
            f" path={self.path})"
        )
