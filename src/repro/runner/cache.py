"""Content-addressed on-disk cache for simulation results.

A cached entry is keyed by a *fingerprint*: the SHA-256 of a canonical JSON
rendering of everything that determines a simulation's outcome —

* the workload (synthetic generation spec, or a hash of the concrete job
  arrays for trace-file workloads);
* the cluster capacity;
* the queue policy, backfill configuration and fault configuration;
* engine options (``kill_at_walltime``, ``track_queue``);
* a **code version**: a hash over the source bytes of every module that
  can change simulation results (``repro.sched``, ``repro.traces`` and
  ``repro.frame``).  Editing any of those files invalidates every cached
  entry — stale results are impossible, at the cost of a cold cache after
  engine changes.

On-disk layout (documented in ``docs/PARALLELISM.md`` and the CLI help)::

    <cache_dir>/
        <2-hex-prefix>/<full-40..64-hex-fingerprint>.json

Entries are plain JSON task results, written atomically (tmp file +
``os.replace``) so concurrent workers and concurrent sweep processes can
share one cache directory without locking: the worst case is two workers
computing the same cell and one overwrite winning.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["ResultCache", "code_version", "hash_u64", "source_version", "stable_hash"]

#: bump manually on semantic changes that source hashing cannot see
#: (e.g. a NumPy version pin changing RNG streams)
CACHE_FORMAT = 1


def stable_hash(obj) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``obj``.

    ``obj`` must be JSON-serializable; keys are sorted so dict ordering
    never leaks into the digest.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def hash_u64(seed: int, *parts) -> int:
    """Unsigned 64-bit draw hashed from ``seed`` and arbitrary labels.

    The first 8 bytes (big-endian) of the SHA-256 of
    ``json.dumps([seed, *map(str, parts)])``.  Every seeded decision of
    the runner (sweep seeds, retry jitter, chaos schedules) is one such
    draw: it never depends on any other draw, so it is reproducible
    whatever the worker count or completion order.
    """
    payload = json.dumps([int(seed), *[str(p) for p in parts]])
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big")


def _iter_package_sources(package) -> list[Path]:
    roots = [Path(p) for p in package.__path__]
    files: list[Path] = []
    for root in roots:
        files.extend(root.rglob("*.py"))
    return sorted(set(files))


def code_version() -> str:
    """Hash of the source files that determine simulation results.

    Cached after the first call; computing it reads every ``.py`` file of
    :mod:`repro.sched`, :mod:`repro.traces` and :mod:`repro.frame` once
    (sub-millisecond on warm filesystems).
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        from .. import frame, sched, traces

        h = hashlib.sha256()
        h.update(f"format:{CACHE_FORMAT}".encode())
        for pkg in (sched, traces, frame):
            for path in _iter_package_sources(pkg):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


_CODE_VERSION: str | None = None


def source_version(root: str | Path | None = None) -> str:
    """Hash of every ``.py`` file of the ``repro`` package tree.

    ``root`` defaults to the imported package's directory.  This stamps a
    benchmark ledger row with all the code it timed, prediction and ML
    included; :func:`code_version` stays the cache key and covers only
    the modules that determine simulation results.  Not cached: a bench
    session reads the tree once per row.
    """
    root = Path(root) if root is not None else Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class ResultCache:
    """Fingerprint-addressed JSON store under one directory.

    Misses return ``None``.  A corrupt or truncated entry (torn write,
    disk fault, injected chaos) is **quarantined** — renamed to
    ``<entry>.json.corrupt`` and counted in :attr:`corrupt` /
    :attr:`quarantined` — rather than silently re-read and re-missed on
    every run; the next :meth:`put` rewrites the entry cleanly.  The cache
    is always safe to delete wholesale.

    ``fsync=True`` opts into flushing each entry (and its directory) to
    stable storage before the atomic rename — power-loss durability at
    the cost of one fsync per write; the default trusts the OS page cache,
    which is safe against process crashes but not pulled plugs.
    """

    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync = bool(fsync)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined: list[Path] = []

    def _path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def _quarantine(self, path: Path) -> Path:
        """Move a damaged entry aside so it is inspected once, not re-hit."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            pass  # a concurrent writer already replaced or removed it
        self.corrupt += 1
        self.quarantined.append(target)
        return target

    def get(self, fingerprint: str) -> dict | None:
        """Stored payload for ``fingerprint``, or ``None``."""
        path = self._path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, fingerprint: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``fingerprint``."""
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if self.fsync:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
