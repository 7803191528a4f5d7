"""The benchmark's workloads: the paper's characterization and its use cases.

Each workload is a closed batch pass through the package's public entry
points.  A pass returns its outputs as *operations*: one entry per
experiment, sweep cell or model fit, each holding that operation's slice of
the experiment's JSON ``data``.  Outputs are compared with stored
references operation by operation (see ``run.py``).

The traced run additionally wraps each layer boundary seen from the
workload's host modules in spans (``instrumentation``); the untraced run
calls the package unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro.experiments.common
import repro.traces.synth
from repro.core import evaluate_takeaways
from repro.experiments import ExperimentResult, run_experiment
from repro.experiments.common import DEFAULT_SEED
from repro.runner import SweepStats
from repro.traces.schema import Trace
from repro.traces.synth import cached_traces, generate_all_traces

from .spans import boundary_functions, patched, span_name

#: the paper's ~4-month characterization window (all five systems)
PAPER_DAYS = 120.0
#: window of the use-case workloads (the experiments' default month)
DAYS = 30.0
#: job caps, scaled down from the experiments' defaults so that one pass
#: takes seconds on a 2-core machine (README.md, "Sizes")
TABLE2_MAX_JOBS = 3000
POLICIES_MAX_JOBS = 2000
RESILIENCE_MAX_JOBS = 1200
FIG12_MAX_JOBS = 600
#: elapsed-time fraction of the Fig 12 comparison (the experiment's middle one)
FIG12_FRACTIONS = (0.25,)
#: worker processes of the sweep grids' run_sweep calls
SWEEP_JOBS = 2
#: largest submit-time shift the seed applies to the use-case inputs
JITTER_S = 300.0

CHARACTERIZE_EXPERIMENTS = ("table1",) + tuple(f"fig{i}" for i in range(1, 12))


def experiment(rec, counters, exp_id: str, **kwargs) -> dict:
    """Run, render and serialize one experiment; return its JSON data."""
    with rec.span(f"experiments.{exp_id}"):
        result = run_experiment(exp_id, **kwargs)
    return emit(rec, counters, result)


def emit(rec, counters, result: ExperimentResult) -> dict:
    with rec.span("viz.render"):
        text = result.render()
    with rec.span("io.json"):
        payload = result.to_json()
    counters["io.bytes"] += len(text) + len(payload)
    return json.loads(payload)["data"]


def split(data, depth: int, prefix: str) -> dict[str, object]:
    """Flatten the top ``depth`` levels of ``data`` into operation names."""
    if depth == 0 or not isinstance(data, dict):
        return {prefix: data}
    ops: dict[str, object] = {}
    for key, value in data.items():
        ops.update(split(value, depth - 1, f"{prefix}/{key}"))
    return ops


def characterize(seed: int, rec, counters) -> dict:
    """Synthesis of all five systems, Table I, Figs 1-11, the takeaways."""
    cached_traces.cache_clear()
    with rec.span("traces.synth"):
        traces = cached_traces(PAPER_DAYS, seed)
    counters["traces.jobs"] = sum(len(t.jobs) for t in traces.values())
    ops = {
        exp_id: experiment(rec, counters, exp_id, days=PAPER_DAYS, seed=seed)
        for exp_id in CHARACTERIZE_EXPERIMENTS
    }
    with rec.span("core.takeaways"):
        takeaways = evaluate_takeaways(traces)
    result = ExperimentResult(
        exp_id="takeaways",
        title="The eight cross-system takeaways",
        blocks=[str(t) for t in takeaways],
        data={str(t.number): t.__dict__ for t in takeaways},
    )
    ops.update(split(emit(rec, counters, result), 1, "takeaways"))
    cached_traces.cache_clear()
    return ops


def backfill(seed: int, rec, counters) -> dict:
    """Table II: relaxed then adaptive-relaxed backfilling, one worker."""
    data = experiment(
        rec, counters, "table2", days=DAYS, seed=seed, max_jobs=TABLE2_MAX_JOBS
    )
    return split(data, 2, "table2")


#: (experiment id, extra arguments, operation depth) of the sweep grids
SWEEP_GRIDS = (
    ("ext_policies", {"max_jobs": POLICIES_MAX_JOBS}, 2),
    ("ext_resilience", {"max_jobs": RESILIENCE_MAX_JOBS}, 3),
)


def sweep(seed: int, rec, counters) -> dict:
    """Policy and resilience grids on a fresh cache, then on the warm one."""
    ops: dict[str, object] = {}
    with tempfile.TemporaryDirectory(prefix="perfbench-cache-") as cache_dir:
        for phase in ("cold", "warm"):
            t0 = time.perf_counter()
            for exp_id, kwargs, depth in SWEEP_GRIDS:
                data = experiment(
                    rec,
                    counters,
                    exp_id,
                    days=DAYS,
                    seed=seed,
                    jobs=SWEEP_JOBS,
                    cache_dir=cache_dir,
                    **kwargs,
                )
                ops.update(split(data, depth, f"{phase}/{exp_id}"))
            if phase == "warm":
                counters["runner.warm_s"] += time.perf_counter() - t0
    return ops


def predict(seed: int, rec, counters) -> dict:
    """Fig 12: five models x one elapsed fraction x two arms, two systems."""
    data = experiment(
        rec, counters, "fig12", days=DAYS, seed=seed, max_jobs=FIG12_MAX_JOBS,
        fractions=FIG12_FRACTIONS,
    )
    return split(data, 2, "fig12")


def usecases(seed: int, rec, counters) -> dict:
    """The paper's two use cases and the sweep grids, in one pass."""
    return {
        **backfill(seed, rec, counters),
        **sweep(seed, rec, counters),
        **predict(seed, rec, counters),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_pass: Callable[[int, object, dict], dict]
    #: modules whose calls into other layers the traced run wraps in spans
    hosts: tuple[str, ...]
    #: window of the traces generated during set-up; None when synthesis
    #: is the timed work itself
    input_days: float | None

    def make_inputs(self, seed: int) -> dict[str, Trace]:
        """The experiments' own traces (default seed), jittered by ``seed``.

        Seed 0 leaves them as the experiments generate them.  Any other
        seed shifts every job's submit time by up to ``JITTER_S`` seconds:
        the outputs change, the scheduling regime and so the amount of work
        do not (README.md, "Seeds").
        """
        traces = generate_all_traces(days=self.input_days, seed=DEFAULT_SEED)
        if seed == DEFAULT_SEED:
            return traces
        rng = np.random.default_rng(seed)
        return {
            name: Trace(
                system=t.system,
                jobs=t.jobs.with_column(
                    "submit_time",
                    t.jobs["submit_time"] + rng.uniform(0.0, JITTER_S, len(t.jobs)),
                ),
                meta={**t.meta, "submit_jitter_seed": seed},
            )
            for name, t in traces.items()
        }

    def supplied(self, inputs: dict[str, Trace], seed: int):
        """Context in which the experiments read ``inputs`` as their traces
        for (``input_days``, ``seed``) instead of synthesizing them."""

        def provider(days, trace_seed):
            if (days, trace_seed) == (self.input_days, seed):
                return inputs
            return cached_traces(days, trace_seed)

        return patched([
            (repro.traces.synth, "cached_traces", provider),
            (repro.experiments.common, "cached_traces", provider),
        ])

    def instrumentation(self, rec, counters) -> list[tuple[object, str, object]]:
        """``(module, name, wrapper)`` replacements for a traced pass."""
        out = []
        for module_name in self.hosts:
            module = importlib.import_module(module_name)
            for name, fn in boundary_functions(module):
                if name == "run_sweep":
                    wrapper = _sweep_probe(rec, counters, fn)
                elif name == "make_predictor":
                    wrapper = _predictor_probe(rec, counters, fn)
                else:
                    wrapper = rec.wrap(span_name(fn), fn)
                out.append((module, name, wrapper))
            if module_name == "repro.predict.harness":
                fn = module.augment_with_checkpoints
                out.append(
                    (module, "augment_with_checkpoints", rec.wrap("predict.augment", fn))
                )
        return out


def _sweep_probe(rec, counters, run_sweep):
    """run_sweep wrapper: one span per call, plus SweepStats and per-cell
    wall time (TaskResult.wall_seconds, measured inside the worker)."""

    @functools.wraps(run_sweep)
    def probe(tasks, *args, stats_out=None, **kwargs):
        stats = stats_out if stats_out is not None else SweepStats()
        with rec.span("runner.sweep"):
            results = run_sweep(tasks, *args, stats_out=stats, **kwargs)
        counters["runner.fingerprint_s"] += stats.fingerprint_seconds
        counters["runner.probe_s"] += stats.probe_seconds
        counters["runner.execute_s"] += stats.execute_seconds
        counters["runner.task_s"] += stats.task_seconds
        counters["runner.cache_hits"] += stats.cache_hits
        counters["runner.cache_misses"] += stats.cache_misses
        if stats.n_executed:
            counters["runner.capacity_s"] += stats.jobs * stats.execute_seconds
        if stats.jobs > 1 and stats.n_executed > 1:
            counters["runner.pool_task_s"] += stats.task_seconds
        for r in results:
            if r is None or r.cached:
                continue
            counters["sched.jobs"] += r.metrics["n_jobs"]
            if r.resilience is None:
                counters["sched.simulate_s"] += r.wall_seconds
            else:
                counters["sched.faults_s"] += r.wall_seconds
                res = r.resilience
                counters["sched.retries"] += round(
                    res["n_jobs"] * (res["mean_attempts"] - 1.0)
                )
        return results

    return probe


def _predictor_probe(rec, counters, make_predictor):
    """make_predictor wrapper whose predictors record fit/predict spans."""

    @functools.wraps(make_predictor)
    def probe(name):
        predictor = make_predictor(name)
        fit = rec.wrap(f"ml.fit.{predictor.name}", predictor.fit)

        def counted_fit(data, X):
            counters["ml.fits"] += 1
            counters["ml.train_rows"] += len(X)
            return fit(data, X)

        predictor.fit = counted_fit
        predictor.predict = rec.wrap("ml.predict", predictor.predict)
        return predictor

    return probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "characterize",
            "all five systems at the paper's 120-day window: traces and core do "
            "the work, sched/ml/runner none",
            characterize,
            hosts=tuple(
                f"repro.experiments.{e}" for e in CHARACTERIZE_EXPERIMENTS
            ),
            input_days=None,
        ),
        Workload(
            "usecases",
            "Table II backfilling, the policy and fault grids through run_sweep "
            "(2 workers, cold then warm cache) and Fig 12 prediction: sched, "
            "runner and ml do the work, core none",
            usecases,
            hosts=(
                "repro.experiments.table2",
                "repro.experiments.ext_policies",
                "repro.experiments.ext_resilience",
                "repro.experiments.fig12",
                "repro.runner.sweep",
                "repro.predict.harness",
            ),
            input_days=DAYS,
        ),
    )
}


def reference_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "references" / f"{name}.json"


def load_references(name: str) -> dict[str, dict]:
    """Stored outputs of workload ``name``, keyed by seed (as a string)."""
    path = reference_path(name)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def mismatches(ops: dict, expected: dict) -> list[str]:
    """Operations missing from ``ops``, differing from ``expected``, or extra."""
    bad = [
        k for k in expected if k not in ops or canonical(ops[k]) != canonical(expected[k])
    ]
    return bad + [k for k in ops if k not in expected]
