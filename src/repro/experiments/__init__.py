"""Experiment harness: one module per paper table/figure.

Run from the command line::

    python -m repro.experiments fig1
    python -m repro.experiments table2 --days 30 --seed 0
    python -m repro.experiments all

or programmatically via :func:`run_experiment`.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult, get_traces

__all__ = [
    "REGISTRY",
    "experiment_module",
    "run_experiment",
    "ExperimentResult",
    "get_traces",
]

#: experiment id -> (module name under this package, one-line description);
#: the modules are imported on first use, so a process that runs only the
#: characterization (Table I, Figs 1-11) never imports the scheduler,
#: runner, prediction or ML stacks
REGISTRY = {
    "table1": ("table1", "Table I: overview of public job traces"),
    "fig1": ("fig1", "Fig 1: job geometries (runtime/arrival/allocation)"),
    "fig2": ("fig2", "Fig 2: core-hour domination by job class"),
    "fig3": ("fig3", "Fig 3: system utilization timelines"),
    "fig4": ("fig4", "Fig 4: waiting and turnaround time CDFs"),
    "fig5": ("fig5", "Fig 5: waiting time vs job geometry classes"),
    "fig6": ("fig6", "Fig 6: job status distribution"),
    "fig7": ("fig7", "Fig 7: job failure vs geometry"),
    "fig8": ("fig8", "Fig 8: per-user config repetition"),
    "fig9": ("fig9", "Fig 9: job size vs queue length"),
    "fig10": ("fig10", "Fig 10: job runtime vs queue length"),
    "fig11": ("fig11", "Fig 11: per-user runtime by status"),
    "fig12": ("fig12", "Fig 12: runtime prediction with elapsed time"),
    "table2": ("table2", "Table II: adaptive relaxed backfilling"),
    # extensions beyond the paper (DESIGN.md section 6)
    "ext_predictive": (
        "ext_predictive",
        "Extension: backfilling with predicted walltimes",
    ),
    "ext_isolation": (
        "ext_isolation",
        "Extension: Philly virtual-cluster isolation cost",
    ),
    "ext_hybrid": (
        "ext_hybrid",
        "Extension: future hybrid HPC+DL workload projection",
    ),
    "ext_tradeoff": (
        "ext_tradeoff",
        "Extension: Tobit accuracy/underestimation trade-off",
    ),
    "robustness": (
        "robustness",
        "Seed-sweep robustness of the eight takeaways",
    ),
    "ext_fragmentation": (
        "ext_fragmentation",
        "Extension: GPU fragmentation under node packing",
    ),
    "ext_policies": (
        "ext_policies",
        "Extension: queue-policy comparison grid",
    ),
    "ext_resilience": (
        "ext_resilience",
        "Extension: backfilling resilience under fault injection",
    ),
    "ext_observability": (
        "ext_observability",
        "Extension: structured tracing of a fault-injected run",
    ),
}


def experiment_module(exp_id: str) -> ModuleType:
    """The module of experiment ``exp_id``, imported on first use."""
    try:
        name, _ = REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(REGISTRY)}"
        ) from None
    return importlib.import_module(f"{__name__}.{name}")


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id and return its result."""
    return experiment_module(exp_id).run(**kwargs)
