"""Golden-trace regression tests for the experiment pipelines.

Small, fast, seeded runs of the ``table2`` and ``ext_resilience``
experiments are frozen as JSON under ``tests/goldens/``; the tests compare
the freshly computed :meth:`ExperimentResult.to_json` output to the frozen
file **byte for byte**.  Any change — a reordered dict key, a float that
moved in the 15th decimal, a renamed metric — fails loudly, which is the
point: the synthetic-trace generator, both scheduling engines, the fault
injector and the metrics layer all feed these numbers, so an unintended
change anywhere upstream surfaces here.

When a change is *intended*, regenerate with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens.py

and commit the updated files alongside the code change (the diff then
documents exactly which numbers moved).  See ``docs/TESTING.md``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ext_resilience, table2
from repro.sched import (
    EASY,
    POLICIES,
    FaultConfig,
    SimWorkload,
    adaptive_relaxed,
    relaxed,
    simulate,
    simulate_conservative,
    simulate_with_faults,
    workload_from_trace,
)
from repro.traces.synth import generate_trace

from .test_fast_engine import _burst_workload

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: deliberately small parameters: ~1s per experiment, yet every layer
#: (synth traces, EASY + relaxed + adaptive engines, fault injection,
#: metrics) is exercised.  Changing these invalidates the goldens.
GOLDEN_PARAMS = {"days": 2.0, "seed": 0, "max_jobs": 600}


class _Blob:
    """Adapter giving ad-hoc golden payloads the ``.to_json()`` shape."""

    def __init__(self, payload: dict):
        self.payload = payload

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=1, sort_keys=True)


def _golden_workload():
    trace = generate_trace("mira", days=2.0, seed=7)
    return workload_from_trace(trace), int(trace.system.schedulable_units)


def _fast_conservative_golden() -> _Blob:
    """Freeze the conservative engine's full per-job sjf output.

    Every reservation in ``promised`` and the profile's queue-sample
    cadence.  The ``"engine"`` literal names the vectorized twin that
    first wrote this file; that loop is now ``simulate_conservative``.
    """
    workload, capacity = _golden_workload()
    res = simulate_conservative(
        workload, capacity, "sjf", track_queue=True
    )
    return _Blob(
        {
            "engine": "fast-conservative",
            "policy": "sjf",
            "summary": res.to_dict(),
            "start": res.start.tolist(),
            "promised": res.promised.tolist(),
            "backfilled": res.backfilled.astype(int).tolist(),
            "queue_samples": res.queue_samples.tolist(),
            "queue_sample_times": res.queue_sample_times.tolist(),
        }
    )


def _fast_faults_golden() -> _Blob:
    """Freeze the fault engine's full fcfs result: schedule, attempt log,
    node failure/repair processes and queue samples, under a calibrated
    configuration that exercises node kills, intrinsic faults, retries
    and checkpoint restores.  The ``"engine"`` literal names the
    vectorized twin that first wrote this file; that loop is now
    ``simulate_with_faults``."""
    workload, capacity = _golden_workload()
    cfg = FaultConfig(
        node_mtbf=40_000.0,
        node_mttr=1_800.0,
        n_nodes=16,
        fail_prob=0.08,
        kill_prob=0.03,
        max_attempts=3,
        checkpoint_interval=3_600.0,
        seed=13,
    )
    res = simulate_with_faults(
        workload, capacity, "fcfs", faults=cfg, track_queue=True
    )
    return _Blob(
        {
            "engine": "fast-faults",
            "policy": "fcfs",
            "summary": res.to_dict(),
            "start": res.start.tolist(),
            "end": res.end.tolist(),
            "status": res.status.tolist(),
            "attempts": res.attempts.tolist(),
            "promised": res.promised.tolist(),
            "backfilled": res.backfilled.astype(int).tolist(),
            "attempt_job": res.attempt_job.tolist(),
            "attempt_start": res.attempt_start.tolist(),
            "attempt_elapsed": res.attempt_elapsed.tolist(),
            "attempt_outcome": res.attempt_outcome.tolist(),
            "node_fail_times": res.node_fail_times.tolist(),
            "node_fail_nodes": res.node_fail_nodes.tolist(),
            "node_repair_times": res.node_repair_times.tolist(),
            "queue_samples": res.queue_samples.tolist(),
            "queue_sample_times": res.queue_sample_times.tolist(),
        }
    )


class _Lines:
    """Golden payload written as one compact sorted-key JSON line per run
    (a per-policy matrix stays diffable without indenting every float)."""

    def __init__(self, runs: dict[str, dict]):
        self.runs = runs

    def to_json(self) -> str:
        return "\n".join(
            json.dumps({"run": name, **run}, sort_keys=True, separators=(",", ":"))
            for name, run in self.runs.items()
        )


def _multi_user_golden_workload():
    """The golden workload with its jobs spread over four users, so
    fair share ranks by decayed usage."""
    workload, capacity = _golden_workload()
    rng = np.random.default_rng(7)
    workload = SimWorkload(
        submit=workload.submit,
        cores=workload.cores,
        runtime=workload.runtime,
        walltime=workload.walltime,
        user=rng.integers(0, 4, workload.n).astype(np.int64),
        status=workload.status,
    )
    return workload, capacity


def _result_fields(res) -> dict:
    """Every field of a ``SimResult``, JSON-ready."""
    return {
        "summary": res.to_dict(),
        "start": res.start.tolist(),
        "promised": res.promised.tolist(),
        "backfilled": res.backfilled.astype(int).tolist(),
        "queue_samples": res.queue_samples.tolist(),
        "queue_sample_times": res.queue_sample_times.tolist(),
    }


#: the EASY family frozen per policy: strict, relaxed and adaptive-relaxed
EASY_BACKFILLS = {
    "easy": EASY,
    "relaxed": relaxed(0.1),
    "adaptive": adaptive_relaxed(0.1),
}


def _easy_policies_golden() -> _Lines:
    """Freeze the full EASY-family ``SimResult`` for every queue policy.

    The 2-day Mira workload with its jobs spread over four users (so
    fair-share ranks by decayed usage) queues hundreds of jobs deep —
    a scale the O(n^2) oracle cannot reach in a test, so this golden
    pins deep-queue and fair-share behaviour on its own.
    """
    workload, capacity = _multi_user_golden_workload()
    runs = {}
    for policy in POLICIES:
        for bf_name, bf in EASY_BACKFILLS.items():
            res = simulate(workload, capacity, policy, bf, track_queue=True)
            runs[f"{policy}/{bf_name}"] = _result_fields(res)
    return _Lines(runs)


def _conservative_policies_golden() -> _Lines:
    """Freeze the full conservative ``SimResult`` for every queue policy.

    Every policy on the multi-user 2-day Mira workload, plus ``sjf`` with
    ``kill_at_walltime`` on that workload with its walltimes halved after
    construction (``SimWorkload`` clamps walltime >= runtime, so only
    restored short walltimes make the kill clip anything); then the
    300-job burst workload of ``tests/test_fast_engine.py`` on 8 cores,
    whose queue runs deeper than the O(n^2) oracle can follow in a test.
    Written by the former readable conservative loop in the commit
    before it was deleted.
    """
    workload, capacity = _multi_user_golden_workload()
    runs = {}
    for policy in POLICIES:
        res = simulate_conservative(workload, capacity, policy, track_queue=True)
        runs[policy] = _result_fields(res)
    short, _ = _multi_user_golden_workload()
    short.walltime = short.walltime * 0.5
    res = simulate_conservative(
        short, capacity, "sjf", kill_at_walltime=True, track_queue=True
    )
    runs["sjf/kill"] = _result_fields(res)
    burst = _burst_workload()
    for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
        res = simulate_conservative(burst, 8, policy, track_queue=True)
        runs[f"burst/{policy}"] = _result_fields(res)
    return _Lines(runs)


#: every array field of a ``FaultSimResult``, in declaration order
FAULT_RESULT_FIELDS = (
    "start", "end", "status", "attempts", "promised", "backfilled",
    "attempt_job", "attempt_start", "attempt_elapsed", "attempt_outcome",
    "node_fail_times", "node_fail_nodes", "node_repair_times",
    "queue_samples", "queue_sample_times",
)


def _fault_policies_golden() -> _Lines:
    """Freeze the full ``FaultSimResult`` of every queue policy.

    The multi-user 2-day Mira workload under one configuration with node
    failures, intrinsic faults, retries and checkpoint restores: a queue
    hundreds of jobs deep and thousands of fault events, a scale the
    O(n^2) fault oracle cannot reach in a test.  Written by the former
    readable reference fault loop in the commit before it was deleted.
    """
    workload, capacity = _multi_user_golden_workload()
    cfg = FaultConfig(
        node_mtbf=40_000.0,
        node_mttr=1_800.0,
        n_nodes=16,
        fail_prob=0.08,
        kill_prob=0.03,
        max_attempts=3,
        checkpoint_interval=3_600.0,
        seed=13,
    )
    runs = {}
    for policy in POLICIES:
        res = simulate_with_faults(
            workload, capacity, policy, EASY, cfg, track_queue=True
        )
        run = {"summary": res.to_dict()}
        for name in FAULT_RESULT_FIELDS:
            arr = getattr(res, name)
            run[name] = (arr.astype(int) if arr.dtype == bool else arr).tolist()
        runs[policy] = run
    return _Lines(runs)


CASES = {
    "conservative_policies": _conservative_policies_golden,
    "easy_policies": _easy_policies_golden,
    "fault_policies": _fault_policies_golden,
    "table2": lambda: table2.run(**GOLDEN_PARAMS),
    "ext_resilience": lambda: ext_resilience.run(**GOLDEN_PARAMS),
    "fast_conservative": _fast_conservative_golden,
    "fast_faults": _fast_faults_golden,
}


def _should_update() -> bool:
    return os.environ.get("REPRO_UPDATE_GOLDENS", "") not in ("", "0")


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.timeout_s(120)
def test_golden(name):
    got = CASES[name]().to_json() + "\n"
    path = GOLDEN_DIR / f"{name}.json"
    if _should_update():
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(got)
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing; generate with "
            "REPRO_UPDATE_GOLDENS=1 (see docs/TESTING.md)"
        )
    want = path.read_text()
    assert got == want, (
        f"{name} output drifted from {path}; if intended, regenerate with "
        "REPRO_UPDATE_GOLDENS=1 and commit the diff"
    )


def test_goldens_regenerate_byte_identically(tmp_path, monkeypatch):
    """The regeneration path itself is deterministic (same bytes twice)."""
    a = CASES["table2"]().to_json()
    b = CASES["table2"]().to_json()
    assert a == b
