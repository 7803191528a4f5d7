"""repro — reproduction of "Cross-System Analysis of Job Characterization
and Scheduling in Large-Scale Computing Clusters" (IPPS 2024).

Public API tour:

* :class:`repro.CrossSystemStudy` — one object, every paper analysis.
* :mod:`repro.traces` — job schema, system specs, SWF I/O, calibrated
  synthetic workload generators for Mira/Theta/Blue Waters/Philly/Helios.
* :mod:`repro.sched` — discrete-event batch-scheduling simulator with EASY,
  relaxed, and adaptive-relaxed backfilling.
* :mod:`repro.predict` — elapsed-time-aware job runtime prediction.
* :mod:`repro.ml` — from-scratch ML substrate (linear/trees/GBM/MLP/Tobit).
* :mod:`repro.experiments` — regenerate every table and figure:
  ``python -m repro.experiments fig1``.

The characterization names load :mod:`repro.core` on first use (PEP 562),
so a command that never characterizes (``generate``, ``simulate``,
``--help``) does not import it.
"""

from __future__ import annotations

import importlib

from .traces import JobStatus, Trace, read_swf, write_swf
from .traces.synth import generate_all_traces, generate_trace

__version__ = "1.0.0"

#: names loaded from :mod:`repro.core` on first use
_CORE_EXPORTS = ("CrossSystemStudy", "evaluate_takeaways")

__all__ = [
    "CrossSystemStudy",
    "evaluate_takeaways",
    "Trace",
    "JobStatus",
    "generate_trace",
    "generate_all_traces",
    "read_swf",
    "write_swf",
    "__version__",
]


def __getattr__(name: str):
    if name not in _CORE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.core"), name)
    globals()[name] = value
    return value
