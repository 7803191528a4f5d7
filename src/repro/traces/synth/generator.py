"""Synthetic trace generation pipeline.

:func:`generate_trace` composes the substrate models into a full job trace:

1. build a user population with per-user config pools (:mod:`.users`);
2. generate the session-based, diurnally modulated arrival stream;
3. assign sizes/runtimes from per-user configs (+ per-job jitter);
4. draw first-pass waits, compute the queue-length signal, and apply the
   load-feedback mutation (users shrink/shorten jobs under long queues);
5. redraw waits from the final job classes (Fig 4/5 calibration);
6. draw final statuses, truncating Failed jobs to early exits;
7. attach requested walltimes (HPC systems only) and virtual-cluster tags.

Everything is seeded and vectorized except one loop over the users.  On a
2-core Xeon VM a 2-day Helios trace (33k jobs, 1,200 users) generates in
about 0.1 s (the ``median_s`` of ``test_bench_generator_throughput`` in
``benchmarks/BENCH_history.jsonl``), and all five systems' 30-day traces
in about 0.8 s (docs/PERFORMANCE.md, "Trace synthesis").
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ...frame import Frame
from ..categorize import size_class
from ..schema import Trace
from ..systems import SystemSpec
from .behavior import queue_length_at_submit
from .calibration import CALIBRATIONS, SystemCalibration, get_calibration
from .users import UserPopulation, generate_arrivals

__all__ = ["generate_trace", "generate_all_traces", "cached_traces"]


def generate_trace(
    system: str | SystemCalibration,
    days: float = 30.0,
    seed: int = 0,
    jobs_per_day: float | None = None,
) -> Trace:
    """Generate a synthetic trace for one target system.

    Parameters
    ----------
    system:
        System name (``"mira"``, ``"theta"``, ``"blue_waters"``,
        ``"philly"``, ``"helios"``) or an explicit calibration.
    days:
        Length of the trace window.  The paper analyzes ~4-month windows;
        30 days reproduces all distributional results at lower cost.
    seed:
        Seed for the trace's private :class:`numpy.random.Generator`.
    jobs_per_day:
        Optional override of the calibrated submission rate (used by tests
        and ablations).
    """
    cal = system if isinstance(system, SystemCalibration) else get_calibration(system)
    spec = cal.system
    rng = np.random.default_rng(seed)

    population = UserPopulation.build(
        rng,
        n_users=cal.n_users,
        configs_per_user_mean=cal.configs_per_user_mean,
        size_dist=cal.size_dist,
        size_rounding=cal.size_rounding,
        max_cores=spec.schedulable_units,
        runtime_dist=cal.runtime_dist,
        zipf_s=cal.config_zipf_s,
        activity_zipf_s=cal.activity_zipf_s,
        max_config_core_seconds=cal.max_config_core_seconds,
        cost_damping=cal.cost_damping,
        cost_ref=cal.cost_ref,
    )

    batch = generate_arrivals(
        rng,
        population,
        days=days,
        jobs_per_day=jobs_per_day if jobs_per_day is not None else cal.jobs_per_day,
        session_mean_jobs=cal.session_mean_jobs,
        gap_dist=cal.gap_dist,
        diurnal=cal.diurnal,
        config_stickiness=cal.config_stickiness,
        vacancy_fraction=cal.vacancy_fraction,
        vacancy_keep=cal.vacancy_keep,
    )
    n = batch.n
    if n == 0:
        raise ValueError("generated zero jobs; increase days or jobs_per_day")

    cores = population.config_cores[batch.config].copy()
    runtime = population.config_runtime[batch.config] * rng.lognormal(
        0.0, cal.runtime_jitter_sigma, n
    )
    runtime = np.maximum(runtime, 1.0)

    # -- first-pass waits -> queue signal -> load feedback ----------------
    s_cls = size_class(cores, spec)
    wait = cal.wait.sample(rng, s_cls, runtime)
    qlen = queue_length_at_submit(batch.submit, wait)
    cores, runtime = cal.queue_feedback.apply(rng, qlen, cores, runtime)

    # -- final waits from the post-feedback classes ------------------------
    s_cls = size_class(cores, spec)
    wait = cal.wait.sample(rng, s_cls, runtime)

    # -- statuses (Failed jobs truncated to early exits) -------------------
    status, runtime = cal.status.sample(rng, runtime, s_cls)

    # -- requested walltimes (HPC only) ------------------------------------
    if cal.walltime_factor is not None:
        factor = cal.walltime_factor.sample(rng, n)
        gran = cal.walltime_granularity
        req_walltime = np.ceil(runtime * factor / gran) * gran
    else:
        req_walltime = np.full(n, np.nan)

    # -- virtual clusters / GPU pool tags ----------------------------------
    if spec.virtual_clusters > 1:
        # users are pinned to virtual clusters (Philly's isolation model)
        user_vc = rng.integers(1, spec.virtual_clusters + 1, size=population.n_users)
        vc = user_vc[batch.user]
    else:
        vc = np.zeros(n, dtype=np.int64)

    columns = {
        "job_id": np.arange(n, dtype=np.int64),
        "user_id": batch.user,
        "submit_time": batch.submit,
        "wait_time": wait,
        "runtime": runtime,
        "cores": cores.astype(np.int64),
        "req_walltime": req_walltime,
        "status": status,
        "vc": vc.astype(np.int64),
    }
    if cal.gpu_fraction > 0:
        columns["pool"] = (rng.random(n) < cal.gpu_fraction).astype(np.int64)

    meta = {
        "generator": "repro.traces.synth",
        "system": spec.name,
        "days": days,
        "seed": seed,
        "jobs_per_day": jobs_per_day if jobs_per_day is not None else cal.jobs_per_day,
        "notes": dict(cal.notes),
    }
    return Trace(system=spec, jobs=Frame(columns), meta=meta)


def generate_all_traces(
    days: float = 30.0, seed: int = 0, systems: list[str] | None = None
) -> dict[str, Trace]:
    """Generate traces for all five target systems (or a subset).

    Each system gets an independent seed derived from ``seed`` so traces
    are uncorrelated but reproducible.
    """
    names = systems if systems is not None else list(CALIBRATIONS)
    out = {}
    for i, name in enumerate(names):
        out[name] = generate_trace(name, days=days, seed=seed * 1009 + i)
    return out


@lru_cache(maxsize=4)
def cached_traces(days: float, seed: int) -> dict[str, Trace]:
    """Process-wide cache of :func:`generate_all_traces`.

    Shared by the experiment harness (:mod:`repro.experiments.common`) and
    the parallel sweep runner (:mod:`repro.runner`): with fork-started
    workers the parent's warm cache is inherited, so workers never
    regenerate traces.
    """
    return generate_all_traces(days=days, seed=seed)
