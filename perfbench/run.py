#!/usr/bin/env python3
"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload usecases --seed 0 --seconds 45 --trace 0

The run sets up (interpreter start + ``import repro``, then the workload's
input traces) several times, then repeats closed passes of the workload
until ``--seconds`` is spent, and checks every pass's outputs against the
stored references.  ``--trace 0`` reports the end-to-end metrics, medians
over passes and set-ups, each scaled to the reference host's speed
(``hostspeed.py``); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics plus a ranked list of layer self times.
Every metric is printed with its unit; the last line of standard output
is one JSON object.  The exit code is 1 when any operation failed and 2
when the source tree is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space and run records, inside the checkout
OUT = ROOT / ".perfbench"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: what a user's process imports before running any experiment
IMPORTS = ("repro", "repro.experiments", "repro.core")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: layers in the order the ranked report breaks ties; "bench" is the
#: benchmark's own code between layer calls
LAYERS = (
    "traces", "core", "sched", "runner", "predict", "ml", "viz", "io",
    "experiments", "bench",
)

PER_LAYER = {
    "traces.synth_s": "s",
    "traces.jobs": "count",
    "core.geometry_s": "s",
    "core.core_hours_s": "s",
    "core.utilization_s": "s",
    "core.waiting_s": "s",
    "core.failures_s": "s",
    "core.users_s": "s",
    "core.takeaways_s": "s",
    "sched.simulate_s": "s",
    "sched.jobs": "count",
    "sched.faults_s": "s",
    "sched.retries": "count",
    "runner.fingerprint_s": "s",
    "runner.probe_s": "s",
    "runner.execute_s": "s",
    "runner.task_s": "s",
    "runner.parallel_eff": "ratio",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.warm_s": "s",
    "predict.features_s": "s",
    "predict.augment_s": "s",
    "ml.fit_s.xgboost": "s",
    "ml.fit_s.tobit": "s",
    "ml.fit_s.mlp": "s",
    "ml.fit_s.lr": "s",
    "ml.predict_s": "s",
    "ml.train_rows": "count",
    "ml.fits": "count",
    "viz.render_s": "s",
    "io.json_s": "s",
    "io.bytes": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "error_rate": "ratio",
}

#: per-layer metric -> span name whose self time it sums
SPAN_METRICS = {
    "traces.synth_s": "traces.synth",
    "core.geometry_s": "core.geometry",
    "core.core_hours_s": "core.corehours",
    "core.utilization_s": "core.utilization",
    "core.waiting_s": "core.waiting",
    "core.failures_s": "core.failures",
    "core.users_s": "core.users",
    "core.takeaways_s": "core.takeaways",
    "predict.features_s": "predict.features",
    "predict.augment_s": "predict.augment",
    "ml.fit_s.xgboost": "ml.fit.xgboost",
    "ml.fit_s.tobit": "ml.fit.tobit",
    "ml.fit_s.mlp": "ml.fit.mlp",
    "ml.fit_s.lr": "ml.fit.lr",
    "ml.predict_s": "ml.predict",
    "io.json_s": "io.json",
}

#: per-layer metrics read from the counters the probes fill
COUNTER_METRICS = (
    "traces.jobs", "sched.simulate_s", "sched.jobs", "sched.faults_s",
    "sched.retries", "runner.fingerprint_s", "runner.probe_s",
    "runner.execute_s", "runner.task_s", "runner.cache_hits",
    "runner.cache_misses", "runner.warm_s", "ml.train_rows", "ml.fits",
    "io.bytes",
)


def bootstrap() -> None:
    """Point imports at this checkout's sources and keep scratch files in it.

    Exits with status 2 when the checkout holds no source tree, so the
    benchmark never measures an installed copy of the package instead.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    # one BLAS thread: with two on a 2-core machine the predict workload's
    # pass time varied by +-13% on identical input, with one by +-1%
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """Name/version of NumPy's BLAS and its current thread count."""
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    """Machine fingerprint: results are comparable only when it matches."""
    import numpy

    blas, blas_threads = _blas()
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def code_identity() -> dict:
    from repro.runner import code_version

    return {"code_version": code_version(), "git_commit": _git_commit()}


# ---------------------------------------------------------------- measuring


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(IMPORTS)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    ops: dict | None
    error: str | None
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def one_pass(workload, seed: int, traced: bool) -> Pass:
    from perfbench.spans import ROOT as ROOT_SPAN
    from perfbench.spans import NullRecorder, Recorder, patched

    rec = Recorder() if traced else NullRecorder()
    counters: dict = defaultdict(float)
    replacements = workload.instrumentation(rec, counters) if traced else []
    ops = error = None
    with patched(replacements):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with rec.span(ROOT_SPAN):
                ops = workload.run_pass(seed, rec, counters)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    return Pass(traced, wall, cpu, ops, error, list(rec.spans) if traced else [],
                dict(counters))


def run_passes(workload, seed: int, seconds: float, trace: bool,
               probes: list[list[float]]) -> list[Pass]:
    """Closed passes until ``seconds`` is spent (untraced/traced alternating
    under ``trace``; at least one of each kind).  The host's speed is probed
    before each pass and after the last, into ``probes``."""
    from perfbench import hostspeed

    passes: list[Pass] = []
    start = time.perf_counter()
    for traced in itertools.cycle((False, True) if trace else (False,)):
        probes.append(hostspeed.probe())
        passes.append(one_pass(workload, seed, traced))
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            probes.append(hostspeed.probe())
            return passes


def score(passes: list[Pass], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every operation of every pass.

    Without a stored reference for the seed, each pass is compared with
    the first pass (determinism only).
    """
    from perfbench.workloads import mismatches

    if expected is None:
        expected = next((p.ops for p in passes if p.ops is not None), None)
    attempted = failed = 0
    notes: list[str] = []
    for p in passes:
        if p.ops is None:
            n = len(expected) if expected else 1
            attempted += n
            failed += n
            notes.append(p.error.strip().splitlines()[-1])
            continue
        bad = mismatches(p.ops, expected)
        attempted += len(set(p.ops) | set(expected))
        failed += len(bad)
        notes += [f"output differs: {name}" for name in bad[:5]]
    return attempted, failed, notes


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from perfbench.spans import ROOT as ROOT_SPAN
    from perfbench.spans import layer_of, totals

    by_name = totals(p.spans)
    by_layer = totals(p.spans, layer_of)
    c = defaultdict(float, p.counters)
    root = p.spans[0]
    m = {name: by_name.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    m.update({name: float(c[name]) for name in COUNTER_METRICS})
    m["runner.parallel_eff"] = (
        c["runner.task_s"] / c["runner.capacity_s"] if c["runner.capacity_s"] else 0.0
    )
    m["viz.render_s"] = by_layer.get("viz", 0.0)
    m.update({f"self_s.{layer}": by_layer.get(layer, 0.0) for layer in LAYERS})
    m["trace.wall_s"] = p.wall
    m["trace.coverage"] = 1.0 - by_name[ROOT_SPAN] / (root.end - root.start)
    return m


def median_dict(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def ranked_report(layers: dict[str, float], traced_wall: float,
                  untraced_wall: float, coverage: float, n_traced: int,
                  pool_task_s: float) -> str:
    """Layers ranked by self time, each with its share of the traced pass."""
    lines = [
        f"layer self time, traced pass (median of {n_traced}) = {traced_wall:.3f} s:"
    ]
    ranked = sorted(layers.items(), key=lambda kv: (-kv[1], LAYERS.index(kv[0])))
    for layer, secs in ranked:
        if secs > 0:
            lines.append(
                f"  {layer:<12} {secs:9.3f} s  {100 * secs / traced_wall:6.1f}%"
            )
    if pool_task_s:
        lines.append(
            f"  (sweep cells ran {pool_task_s:.3f} s in worker processes; the "
            "parent's wait for them is runner self time)"
        )
    overhead = traced_wall - untraced_wall
    lines.append(
        f"named layers cover {100 * coverage:.1f}% of the traced pass; tracing "
        f"overhead {overhead:+.3f} s ({100 * overhead / untraced_wall:+.1f}%) "
        f"against the untraced pass (median) {untraced_wall:.3f} s"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------- command line


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from perfbench import hostspeed
    from perfbench.workloads import WORKLOADS, load_references

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setups = []
    setup_probes = [hostspeed.probe()]
    input_walls = []
    inputs = {}
    for _ in range(SETUP_REPEATS):
        wall = time_import()
        if workload.input_days is not None:
            inputs = {}
            t0 = time.perf_counter()
            inputs = workload.make_inputs(args.seed)
            input_walls.append(time.perf_counter() - t0)
            wall += input_walls[-1]
        setups.append(wall)
        setup_probes.append(hostspeed.probe())

    probes: list[list[float]] = []
    if workload.input_days is None:
        passes = run_passes(workload, args.seed, args.seconds, bool(args.trace),
                            probes)
    else:
        with workload.supplied(inputs, args.seed):
            passes = run_passes(workload, args.seed, args.seconds, bool(args.trace),
                                probes)
    expected = load_references(workload.name).get(str(args.seed))
    attempted, failed, notes = score(passes, expected)
    error_rate = failed / attempted
    untraced = [p for p in passes if not p.traced]
    untraced_wall = statistics.median(p.wall for p in untraced)

    if not args.trace:
        # medians of reference-host seconds: each pass and set-up scaled by
        # the host's speed probed just before and after it
        walls = hostspeed.scaled([p.wall for p in passes], probes)
        cpus = hostspeed.scaled([p.cpu for p in passes], probes)
        speeds = hostspeed.factors(probes)
        print(f"host seconds: pass {untraced_wall:.4f}  cpu "
              f"{statistics.median(p.cpu for p in passes):.4f}  setup "
              f"{statistics.median(setups):.4f}; speed against the reference "
              f"host x{statistics.median(speeds):.4f} "
              f"(x{min(speeds):.4f}..x{max(speeds):.4f} over passes)")
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(hostspeed.scaled(setups, setup_probes)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p.traced and p.ops is not None] or [
            p for p in passes if p.traced
        ]
        merged = median_dict([layer_metrics(p) for p in traced])
        if workload.input_days is not None:
            merged["traces.synth_s"] = statistics.median(input_walls)
            merged["traces.jobs"] = float(sum(len(t.jobs) for t in inputs.values()))
        merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced_wall
        merged["error_rate"] = error_rate
        metrics = {name: merged[name] for name in PER_LAYER}
        units = PER_LAYER
        pool_task_s = statistics.median(
            p.counters.get("runner.pool_task_s", 0.0) for p in traced
        )
        print(ranked_report(
            {layer: metrics[f"self_s.{layer}"] for layer in LAYERS},
            metrics["trace.wall_s"], untraced_wall, metrics["trace.coverage"],
            len(traced), pool_task_s,
        ))
        spans_file = OUT / f"spans-{workload.name}-{args.seed}.json"
        spans_file.write_text(json.dumps(
            [{"wall": p.wall, "spans": [vars(s) for s in p.spans]} for p in traced]
        ))

    env, code = environment(), code_identity()
    reference = "stored" if expected is not None else "none (determinism only)"
    print(f"workload {workload.name}  seed {args.seed}  reference {reference}")
    print("pass walls " + " ".join(
        f"{p.wall:.3f}{'T' if p.traced else ''}" for p in passes
    ))
    print(f"environment {json.dumps(env)}")
    print(f"code {json.dumps(code)}")
    for note in notes[:10]:
        print(f"FAILED: {note}")
    print(f"error_rate {error_rate:.6g} ratio  ({failed} of {attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "code": code, "attempted": attempted,
        "failed": failed, "metrics": metrics, "ts": time.time(),
    }
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
