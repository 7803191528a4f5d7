"""Job size and length categorization (paper §III-A).

The paper uses two categorization schemes:

* **HPC / hybrid systems** (Mira, Theta, Blue Waters) — size classes follow
  Patel et al.: *small* allocates <10% of total cores, *middle* 10-30%,
  *large* >30%.
* **DL systems** (Philly, Helios) — size classes follow Hu et al.:
  *small* = 1 GPU, *middle* = 2-8 GPUs, *large* = >8 GPUs.

Runtime classes are shared: *short* <1h, *middle* 1h-1d, *long* >1d.
An extra *minimal* flag (1 core / <60s) supports Fig 9/10.
"""

from __future__ import annotations

import numpy as np

from .schema import Trace, per_trace
from .systems import SystemKind, SystemSpec

__all__ = [
    "SIZE_LABELS",
    "LENGTH_LABELS",
    "size_class",
    "length_class",
    "size_class_edges",
    "minimal_size_mask",
    "minimal_runtime_mask",
    "LENGTH_EDGES",
    "trace_size_class",
    "trace_length_class",
]

SIZE_LABELS = ("small", "middle", "large")
LENGTH_LABELS = ("short", "middle", "long")

#: runtime class edges in seconds: <1h short, 1h-1d middle, >1d long
LENGTH_EDGES = (3600.0, 86400.0)

#: DL size edges in GPUs: 1 small, 2-8 middle, >8 large
DL_SIZE_EDGES = (1, 8)

#: HPC size edges as fraction of total cores
HPC_SIZE_FRACTIONS = (0.10, 0.30)


def size_class_edges(system: SystemSpec) -> tuple[float, float]:
    """Return the (small|middle, middle|large) core-count boundaries."""
    if system.kind is SystemKind.DL:
        return float(DL_SIZE_EDGES[0]), float(DL_SIZE_EDGES[1])
    total = system.schedulable_units
    return total * HPC_SIZE_FRACTIONS[0], total * HPC_SIZE_FRACTIONS[1]


def size_class(cores: np.ndarray, system: SystemSpec) -> np.ndarray:
    """Classify job sizes: 0=small, 1=middle, 2=large (system-dependent)."""
    cores = np.asarray(cores, dtype=float)
    lo, hi = size_class_edges(system)
    # DL edges are inclusive upper bounds (1 GPU small, <=8 middle)
    if system.kind is SystemKind.DL:
        out = np.where(cores <= lo, 0, np.where(cores <= hi, 1, 2))
    else:
        out = np.where(cores < lo, 0, np.where(cores <= hi, 1, 2))
    return out.astype(np.int64)


def length_class(runtime: np.ndarray) -> np.ndarray:
    """Classify runtimes: 0=short (<1h), 1=middle (1h-1d incl.), 2=long (>1d)."""
    rt = np.asarray(runtime, dtype=float)
    return np.where(
        rt < LENGTH_EDGES[0], 0, np.where(rt <= LENGTH_EDGES[1], 1, 2)
    ).astype(np.int64)


def minimal_size_mask(cores: np.ndarray) -> np.ndarray:
    """Jobs requesting exactly one CPU/GPU (the Fig 9 'Minimal' class)."""
    return np.asarray(cores) == 1


def minimal_runtime_mask(runtime: np.ndarray, threshold: float = 60.0) -> np.ndarray:
    """Jobs finishing within ``threshold`` seconds (Fig 10 'Minimal')."""
    return np.asarray(runtime, dtype=float) < threshold


@per_trace
def trace_size_class(trace: Trace) -> np.ndarray:
    """Size classes for every job in ``trace`` (int8, memoized per trace)."""
    return size_class(trace["cores"], trace.system).astype(np.int8)


@per_trace
def trace_length_class(trace: Trace) -> np.ndarray:
    """Length classes for every job in ``trace`` (int8, memoized per trace)."""
    return length_class(trace["runtime"]).astype(np.int8)
