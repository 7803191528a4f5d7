"""Differential-oracle test kit for the scheduling engines.

Three layers, each usable on its own (see ``docs/TESTING.md``):

* :mod:`repro.testkit.oracle` — a deliberately simple O(n²) reference
  scheduler (no heap, no free-core ledger, full re-scans every step)
  implementing every queue policy (fair share included) with no-backfill,
  EASY and conservative semantics straight from their definitions;
* :mod:`repro.testkit.invariants` — reusable invariant checks (capacity
  never exceeded, no start before submit, promises honoured, conservation
  of work) callable on any :class:`~repro.sched.SimResult`, plus the
  event-stream audit re-exported from :func:`repro.obs.check_events`;
* :mod:`repro.testkit.fuzz` — a seeded workload fuzzer that runs
  engine-vs-oracle differential comparisons over adversarial random
  workloads and shrinks any failure to a minimal SWF reproducer
  (surface: ``python -m repro.cli fuzz``);
* :mod:`repro.testkit.chaos` — seeded fault injection for the *sweep
  runner itself* (worker crashes, hangs, transient errors, corrupt
  results, torn cache writes), driving the crash-safety guarantees of
  :func:`repro.runner.run_sweep` (``tests/test_chaos.py``).

Together they are the safety net every engine refactor and perf PR runs
against: the hypothesis suite (``tests/test_sim_invariants.py``) drives
the invariants, the fuzzer guards bit-level scheduling semantics, and the
golden tests (``tests/test_goldens.py``) pin end-to-end experiment output.
"""

from .chaos import NO_CHAOS, ChaosConfig, ChaosError
from .fuzz import (
    FUZZ_FAULT_CONFIGS,
    FUZZ_POLICIES,
    Divergence,
    FuzzPolicy,
    FuzzReport,
    check_case,
    fuzz,
    random_workload,
    shrink,
    workload_to_trace,
)
from .invariants import (
    check_all_served,
    check_capacity,
    check_conservation,
    check_events,
    check_fault_result,
    check_no_early_start,
    check_promises,
    check_result,
    max_concurrent_usage,
)
from .oracle import ORACLE_POLICIES, oracle_simulate, oracle_simulate_with_faults

__all__ = [
    "oracle_simulate",
    "oracle_simulate_with_faults",
    "ORACLE_POLICIES",
    "check_result",
    "check_fault_result",
    "check_capacity",
    "check_no_early_start",
    "check_all_served",
    "check_promises",
    "check_conservation",
    "check_events",
    "max_concurrent_usage",
    "fuzz",
    "FuzzPolicy",
    "FUZZ_POLICIES",
    "FUZZ_FAULT_CONFIGS",
    "FuzzReport",
    "Divergence",
    "check_case",
    "random_workload",
    "shrink",
    "workload_to_trace",
    "ChaosConfig",
    "ChaosError",
    "NO_CHAOS",
]
