"""Discrete-event batch-scheduling simulator: the EASY-family entry point.

Event-driven (no time stepping): the only events are job submissions and job
completions.  After draining the events at the current instant, the
scheduler runs: serve the queue in policy order, give the blocked head a
reservation, and backfill around it per the configured
:class:`~repro.sched.backfill.BackfillConfig`.

:func:`simulate` runs the vectorized engine (:mod:`repro.sched.fast`), or
its fault-injecting counterpart (:mod:`repro.sched.faults`) when given a
fault config.  The readable specification of the same semantics is the
O(n²) oracle in :mod:`repro.testkit.oracle`, which the differential fuzzer
(``repro fuzz``) holds the engine to bit for bit.  This module keeps the
result type both share.

Observability (:mod:`repro.obs`) is wired through but strictly optional:
``tracer`` receives the decision log (submit/start/finish/reservation/
backfill events with queue depth, free cores and shadow times), ``metrics``
collects counters/gauges/histograms plus a sim-time utilization series, and
``profiler`` times the hot paths (event drain, policy sort, backfill scan).
All three default to no-ops, and an instrumented run is bit-identical to an
uninstrumented one — the sinks observe, they never decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backfill import BackfillConfig, EASY
from .job import SimWorkload
from .policies import Policy

__all__ = ["SimResult", "simulate", "USAGE_EPS"]

#: Fair-share usage entries that decay below this are dropped entirely.
#: Usage is credited in core-seconds (>= 1 for any real job), so reaching
#: the epsilon takes ~40 half-lives of inactivity — far beyond any trace
#: horizon we replay — which makes the prune invisible to scheduling
#: decisions while bounding the ``usage`` dict and avoiding denormal-float
#: multiplies on long multi-user traces.  A pruned entry reads back as 0.0,
#: exactly what ``usage.get(u, 0.0)`` returned before the entry existed.
USAGE_EPS = 1e-12


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    workload: SimWorkload
    capacity: int
    start: np.ndarray
    #: first reservation promise per job (NaN when never head-of-queue)
    promised: np.ndarray
    #: True for jobs that started by jumping a blocked queue head
    backfilled: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    #: queue length sampled at every scheduling decision (always int64: the
    #: bare default/``np.asarray`` dtypes used to disagree across platforms)
    queue_samples: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    queue_sample_times: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.float64)
    )

    @property
    def wait(self) -> np.ndarray:
        """Per-job wait times."""
        return self.start - self.workload.submit

    @property
    def end(self) -> np.ndarray:
        """Per-job completion times."""
        return self.start + self.workload.runtime

    @property
    def makespan(self) -> float:
        """First submission to last completion."""
        return float(self.end.max() - self.workload.submit.min())

    @property
    def backfill_rate(self) -> float:
        """Fraction of jobs that started via backfilling."""
        if len(self.backfilled) == 0:
            return 0.0
        return float(self.backfilled.mean())

    def to_dict(self) -> dict:
        """Canonical run-summary dict (the one serialization of a run).

        Shared by :mod:`repro.sched.export`, the CLI's ``--metrics-out``
        payload and the experiment harness, so every surface describes a
        run with the same keys.
        """
        w = self.workload
        wait = self.wait
        return {
            "n_jobs": int(w.n),
            "capacity": int(self.capacity),
            "makespan_s": float(self.makespan),
            "mean_wait_s": float(wait.mean()),
            "median_wait_s": float(np.median(wait)),
            "backfill_rate": float(self.backfill_rate),
            "core_seconds": float((w.cores * w.runtime).sum()),
        }


def simulate(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    faults=None,
    tracer=None,
    metrics=None,
    profiler=None,
):
    """Run the scheduler over a workload and return per-job start times.

    Parameters
    ----------
    workload:
        Job stream (sorted by submit time).
    capacity:
        Total allocatable units of the cluster.
    policy:
        Queue ordering policy (name or :class:`Policy`).
    backfill:
        Backfilling configuration; default strict EASY.
    track_queue:
        Record the queue length at every scheduling decision (used by
        utilization/queue plots; costs memory on big runs).
    kill_at_walltime:
        Terminate jobs at their walltime (relevant when walltimes come
        from a *predictor* that may underestimate; see
        :mod:`repro.sched.predictive`).
    faults:
        Optional :class:`~repro.sched.faults.FaultConfig`.  When given,
        the run goes through
        :func:`~repro.sched.faults.simulate_with_faults` and returns its
        :class:`~repro.sched.faults.FaultSimResult` (which reduces to this
        engine's behaviour for a null config).
    tracer:
        Optional :class:`~repro.obs.Tracer` receiving the decision log
        (recorded columnar, see :mod:`repro.obs.columnar`).
    metrics:
        Optional :class:`~repro.obs.Metrics` registry.
    profiler:
        Optional :class:`~repro.obs.Profiler` timing the hot paths.
    """
    # imported here: both engines import SimResult from this module
    if faults is not None:
        from .faults import simulate_with_faults

        return simulate_with_faults(
            workload,
            capacity,
            policy,
            backfill,
            faults,
            track_queue=track_queue,
            kill_at_walltime=kill_at_walltime,
            tracer=tracer,
            metrics=metrics,
            profiler=profiler,
        )
    from .fast import simulate_fast

    return simulate_fast(
        workload,
        capacity,
        policy,
        backfill,
        track_queue=track_queue,
        kill_at_walltime=kill_at_walltime,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )
