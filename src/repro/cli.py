"""Top-level command-line interface.

Subcommands::

    repro generate  <system> -o trace.swf [--days D] [--seed S]
    repro validate  <trace.swf>
    repro analyze   <trace.swf> [--report out.md]
    repro analyze   <events.jsonl | events.npz> [--json]
    repro simulate  <trace.swf> [--policy P[,P2,...]] [--backfill MODE]
                    [--relax F]
                    [--jobs N] [--cache-dir DIR] [--no-cache]
                    [--task-timeout S] [--on-error raise|skip|retry]
                    [--task-retries N] [--retry-backoff S] [--fsync]
                    [--journal sweep.jsonl] [--resume]
                    [--mtbf-hours H] [--retries N] [--inject-status]
                    [--trace-out events.jsonl|events.npz]
                    [--metrics-out m.json|m.prom]
                    [--profile] [--run-log runs.jsonl] [--progress MODE] ...
    repro report    <runs.jsonl | BENCH_history.jsonl>
                    [--straggler-factor K] [--regression-factor K]
                    [--perf] [--median-of K] [--format text|json] [--json]
                    [--fail-on-regression]
    repro profile   <trace.swf> [--policy P] [--backfill MODE]
                    [--sample-hz HZ]
                    [--trace-out trace.json] [--stacks-out stacks.txt]
    repro fuzz      [--budget N] [--seed S] [--policy P[,P2,...]]
                    [--capacity C] [--max-jobs N] [--out repro.swf]
    repro study     [--days D] [--seed S] [--report out.md]

Invoke as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .runner.options import add_run_arguments, run_options_from_args
from .traces import read_swf, validate_trace, write_swf
from .traces.synth import CALIBRATIONS, generate_trace
from .viz import render_table, seconds

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = generate_trace(args.system, days=args.days, seed=args.seed)
    write_swf(trace, args.output)
    print(
        f"wrote {trace.num_jobs} jobs ({args.system}, {args.days} days, "
        f"seed {args.seed}) to {args.output}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    trace = read_swf(args.trace)
    report = validate_trace(trace)
    print(f"{args.trace}: {trace.num_jobs} jobs on {trace.system.name}")
    print(report)
    return 0 if report.consistent else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    suffix = args.trace.suffix.lower()
    if suffix in (".jsonl", ".npz"):
        # captured event stream (tracer JSONL or columnar .npz recording):
        # job-characterization analytics instead of SWF characterization
        if args.report:
            print(
                "--report renders SWF characterization reports; event "
                "streams print tables directly (or --json)",
                file=sys.stderr,
            )
            return 2
        from .obs import analyze_events, load_events

        try:
            events = load_events(args.trace)
        except OSError as exc:
            print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        analysis = analyze_events(events)
        if args.json:
            print(json.dumps(analysis.to_dict(), indent=1))
        else:
            print(analysis.render())
        return 0
    if args.json:
        print(
            "--json applies to event streams (.jsonl/.npz); SWF traces "
            "use --report for file output",
            file=sys.stderr,
        )
        return 2
    trace = read_swf(args.trace)
    if args.report:
        from .core.report import write_report
        from .core.study import CrossSystemStudy

        name = trace.system.name.lower().replace(" ", "_")
        study = CrossSystemStudy.from_traces({name: trace})
        path = write_report(study, args.report, title=f"Analysis of {args.trace}")
        print(f"wrote report to {path}")
    else:
        from .core import core_hour_shares, runtime_summary, status_shares

        rt = runtime_summary(trace)
        ch = core_hour_shares(trace)
        st = status_shares(trace)
        print(
            render_table(
                ["metric", "value"],
                [
                    ["jobs", str(trace.num_jobs)],
                    ["median runtime", seconds(rt.median)],
                    ["dominant size class", ch.dominant_size()],
                    ["dominant length class", ch.dominant_length()],
                    ["passed share", f"{st.passed_count_share:.2f}"],
                ],
                title=f"{trace.system.name}",
            )
        )
    return 0


#: ``--backfill`` choices
_BACKFILL_MODES = ("adaptive", "easy", "none", "relaxed")


def _backfill(args: argparse.Namespace):
    """The backfill configuration ``--backfill`` and ``--relax`` select."""
    from . import sched

    if args.backfill == "none":
        return sched.NO_BACKFILL
    if args.backfill == "easy":
        return sched.EASY
    if args.backfill == "relaxed":
        return sched.relaxed(args.relax)
    return sched.adaptive_relaxed(args.relax)


def _fault_config(args: argparse.Namespace, trace) -> "FaultConfig | None":
    """Build a FaultConfig from simulate-subcommand flags, or None if off."""
    from .sched import FaultConfig

    faults_on = args.mtbf_hours > 0 or args.inject_status
    if not faults_on:
        return None
    mtbf = args.mtbf_hours * 3600.0 if args.mtbf_hours > 0 else float("inf")
    overrides = dict(
        node_mtbf=mtbf,
        node_mttr=args.mttr_hours * 3600.0,
        n_nodes=args.fault_nodes,
        max_attempts=args.retries + 1,
        backoff_base=args.backoff,
        checkpoint_interval=(
            args.checkpoint_hours * 3600.0 if args.checkpoint_hours > 0 else None
        ),
        seed=args.fault_seed,
    )
    if args.inject_status:
        return FaultConfig.from_trace(trace, **overrides)
    return FaultConfig(**overrides)


def _ensure_parent(path: Path) -> Path:
    """Create ``path``'s parent directory, with a clear error on conflict.

    Raising :class:`ValueError` (instead of letting ``open`` die with a raw
    ``FileNotFoundError``) lets the CLI print one actionable line and exit 2.
    """
    parent = path.parent
    if parent.exists() and not parent.is_dir():
        raise ValueError(f"cannot write {path}: {parent} is not a directory")
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create directory {parent}: {exc}") from exc
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    return path


def _obs_sinks(args: argparse.Namespace):
    """(tracer, metrics, profiler) from the observability flags; None = off."""
    from .obs import JsonlTracer, Metrics, Profiler

    tracer = metrics = profiler = None
    if args.trace_out:
        path = _ensure_parent(args.trace_out)
        if path.suffix.lower() == ".npz":
            from .obs import ColumnarRecorder

            tracer = ColumnarRecorder(path)
        else:
            tracer = JsonlTracer(path)
    if args.metrics_out:
        _ensure_parent(args.metrics_out)
        metrics = Metrics(sample_interval=args.metrics_interval)
    if args.profile:
        profiler = Profiler()
    return tracer, metrics, profiler


def _finish_obs(args: argparse.Namespace, result, tracer, metrics, profiler) -> None:
    """Flush the observability sinks after a simulate run."""
    if tracer is not None:
        tracer.close()
        print(f"wrote {tracer.count} events to {args.trace_out}")
    if metrics is not None:
        path: Path = args.metrics_out
        if path.suffix == ".prom":
            path.write_text(metrics.to_prometheus(), encoding="utf-8")
        else:
            payload = {
                "summary": result.to_dict(),
                "metrics": json.loads(metrics.to_json(indent=None)),
            }
            path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote metrics to {path}")
    if profiler is not None:
        print(profiler.report())


def _print_fault_table(title: str, n_jobs: int, rm) -> None:
    print(
        render_table(
            ["metric", "value"],
            [
                ["jobs", str(n_jobs)],
                ["goodput (core-h)", f"{rm.goodput_core_hours:,.0f}"],
                ["wasted (core-h)", f"{rm.wasted_core_hours:,.0f}"],
                ["effective util", f"{rm.effective_util:.4f}"],
                ["completed", f"{rm.completed_fraction:.2%}"],
                ["failed", f"{rm.failed_fraction:.2%}"],
                ["killed", f"{rm.killed_fraction:.2%}"],
                ["mean attempts", f"{rm.mean_attempts:.2f}"],
                ["avg wait", seconds(rm.mean_wait)],
            ],
            title=title,
        )
    )


def _print_metrics_table(title: str, n_jobs: int, metrics) -> None:
    print(
        render_table(
            ["metric", "value"],
            [
                ["jobs", str(n_jobs)],
                ["avg wait", seconds(metrics.wait)],
                ["bounded slowdown", f"{metrics.bsld:.2f}"],
                ["utilization", f"{metrics.util:.4f}"],
                ["violation", seconds(metrics.violation)],
            ],
            title=title,
        )
    )


def _simulate_direct(args: argparse.Namespace, trace, workload, policy, backfill, faults) -> int:
    """In-process run wired to the observability sinks (legacy path)."""
    try:
        tracer, obs_metrics, profiler = _obs_sinks(args)
    except ValueError as exc:
        print(f"invalid observability output: {exc}", file=sys.stderr)
        return 2
    from .sched import compute_metrics, simulate

    result = simulate(
        workload,
        trace.system.schedulable_units,
        policy,
        backfill,
        faults=faults,
        tracer=tracer,
        metrics=obs_metrics,
        profiler=profiler,
    )
    if faults is not None:
        from .sched import compute_resilience_metrics

        _print_fault_table(
            f"{trace.system.name}: {policy} + {args.backfill} (with faults)",
            workload.n,
            compute_resilience_metrics(result),
        )
    else:
        _print_metrics_table(
            f"{trace.system.name}: {policy} + {args.backfill}",
            workload.n,
            compute_metrics(result),
        )
    _finish_obs(args, result, tracer, obs_metrics, profiler)
    return 0


def _sweep_telemetry(args: argparse.Namespace):
    """(registry, progress) from the sweep-telemetry flags; None = off."""
    from .obs import JsonlProgress, RunRegistry, TtyProgress

    registry = progress = None
    if args.run_log:
        registry = RunRegistry(_ensure_parent(args.run_log))
    if args.progress == "tty":
        progress = TtyProgress()
    elif args.progress == "jsonl":
        progress = JsonlProgress(sys.stderr)
    return registry, progress


def _simulate_sweep(args: argparse.Namespace, trace, workload, policies, backfill, faults) -> int:
    """Run one or more policies through the parallel sweep runner."""
    from .runner import FailureReport, SimTask, SweepError, run_sweep

    try:
        options = run_options_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    cache, journal = options.cache, options.journal
    try:
        registry, progress = _sweep_telemetry(args)
    except ValueError as exc:
        if journal is not None:
            journal.close()
        print(f"invalid run-log output: {exc}", file=sys.stderr)
        return 2
    tasks = [
        SimTask(
            label=policy,
            workload=workload,
            policy=policy,
            backfill=backfill,
            faults=faults,
            capacity=trace.system.schedulable_units,
        )
        for policy in policies
    ]
    report = FailureReport()
    try:
        results = run_sweep(
            tasks,
            options,
            registry=registry,
            progress=progress,
            failures_out=report,
        )
    except SweepError as exc:
        n_done = sum(r is not None for r in exc.results)
        print(f"sweep failed: {exc.report.summary()}", file=sys.stderr)
        print(
            f"({n_done}/{len(tasks)} cell(s) completed before the abort; "
            "completed cells are cached/journaled — rerun to resume)",
            file=sys.stderr,
        )
        return 1
    finally:
        if journal is not None:
            journal.close()
        if registry is not None:
            registry.close()
        if progress is not None:
            progress.close()
    failed = {f.label for f in report.failures}
    if failed:
        # on_error="skip" leaves None holes; report them once, render the rest
        print(f"sweep degraded: {report.summary()}", file=sys.stderr)
    survivors = [cell for cell in results if cell is not None]
    if not survivors:
        print("no cells completed", file=sys.stderr)
        return 1
    results = survivors
    if len(results) == 1 and not failed:
        cell = results[0]
        if faults is not None:
            _print_fault_table(
                f"{trace.system.name}: {policies[0]} + {args.backfill} "
                "(with faults)",
                workload.n,
                cell.resilience_metrics(),
            )
        else:
            _print_metrics_table(
                f"{trace.system.name}: {policies[0]} + {args.backfill}",
                workload.n,
                cell.schedule_metrics(),
            )
    elif faults is not None:
        rows = [
            [
                cell.label,
                f"{rm.goodput_core_hours:,.0f}",
                f"{rm.wasted_core_hours:,.0f}",
                f"{rm.effective_util:.4f}",
                f"{rm.completed_fraction:.2%}",
                seconds(rm.mean_wait),
            ]
            for cell in results
            for rm in [cell.resilience_metrics()]
        ]
        print(
            render_table(
                ["policy", "goodput (core-h)", "wasted (core-h)",
                 "eff util", "completed", "avg wait"],
                rows,
                title=f"{trace.system.name} ({workload.n} jobs): policy sweep "
                f"+ {args.backfill} (with faults)",
            )
        )
    else:
        rows = [
            [
                cell.label,
                seconds(m.wait),
                f"{m.bsld:.2f}",
                f"{m.util:.4f}",
                seconds(m.violation),
            ]
            for cell in results
            for m in [cell.schedule_metrics()]
        ]
        print(
            render_table(
                ["policy", "avg wait", "bounded slowdown", "utilization",
                 "violation"],
                rows,
                title=f"{trace.system.name} ({workload.n} jobs): policy sweep "
                f"+ {args.backfill}",
            )
        )
    if cache is not None:
        corrupt = (
            f", {cache.corrupt} corrupt entr(ies) quarantined"
            if cache.corrupt
            else ""
        )
        print(
            f"(cache {args.cache_dir}: {cache.hits} hit(s), "
            f"{cache.misses} miss(es){corrupt})"
        )
    if journal is not None:
        print(
            f"(journal {args.journal}: {journal.recorded} cell(s) recorded)"
        )
    if report.n_retried:
        print(f"({report.n_retried} attempt(s) retried)", file=sys.stderr)
    if registry is not None:
        print(f"logged {registry.count} run record(s) to {args.run_log}")
    return 1 if failed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sched import workload_from_trace

    trace = read_swf(args.trace)
    workload = workload_from_trace(trace)
    if args.max_jobs:
        workload = workload.slice(args.max_jobs)
    backfill = _backfill(args)
    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    if not policies:
        print("--policy needs at least one policy name", file=sys.stderr)
        return 2
    try:
        faults = _fault_config(args, trace)
    except ValueError as exc:
        print(f"invalid fault configuration: {exc}", file=sys.stderr)
        return 2
    wants_obs = bool(args.trace_out or args.metrics_out or args.profile)
    wants_telemetry = bool(args.run_log) or args.progress != "none"
    wants_crash_safety = (
        args.task_timeout is not None
        or args.on_error != "raise"
        or args.task_retries is not None
        or args.journal is not None or args.resume
    )
    if wants_obs:
        if wants_crash_safety:
            print(
                "--task-timeout/--on-error/--task-retries/--journal harden "
                "the sweep runner, which --trace-out/--metrics-out/--profile "
                "bypass; use one set of flags per invocation",
                file=sys.stderr,
            )
            return 2
        if wants_telemetry:
            print(
                "--run-log/--progress observe the sweep runner, which "
                "--trace-out/--metrics-out/--profile bypass; use one set "
                "of flags per invocation",
                file=sys.stderr,
            )
            return 2
        if len(policies) > 1:
            print(
                "--trace-out/--metrics-out/--profile record a single run; "
                "pass one --policy or drop the observability flags",
                file=sys.stderr,
            )
            return 2
        # observability sinks need in-process hooks, so this run bypasses
        # the parallel runner (and its cache) entirely
        return _simulate_direct(args, trace, workload, policies[0], backfill, faults)
    return _simulate_sweep(args, trace, workload, policies, backfill, faults)


def _render_trajectory(entries: list[dict], key_header: str) -> str:
    rows = [
        [
            str(e["key"]),
            str(e["index"]),
            f"{e['value']:.3f}",
            "-" if e["ratio"] is None else f"{e['ratio']:.2f}x",
            "REGRESSED" if e["regressed"] else "",
        ]
        for e in entries
    ]
    return render_table(
        [key_header, "run", "wall (s)", "vs prev", "flag"],
        rows,
        title="trajectory",
    )


def _render_perf_gate(entries: list[dict], key_header: str) -> str:
    rows = [
        [
            str(e["key"]),
            e["field"],
            str(e["runs"]),
            f"{e['value']:.3f}",
            "-" if e["baseline"] is None else f"{e['baseline']:.3f}",
            "-" if e["ratio"] is None else f"{e['ratio']:.2f}x",
            "REGRESSED"
            if e["regressed"]
            else ("no baseline" if e["ratio"] is None else "ok"),
        ]
        for e in entries
    ]
    return render_table(
        [key_header, "field", "runs", "latest (s)", "baseline (s)", "ratio", "verdict"],
        rows,
        title="perf gate (baseline = median of preceding runs)",
    )


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run-registry or bench-history JSONL into aggregate tables."""
    from .obs import SweepReport, perf_gate, read_records, trajectory

    fmt = args.format or "text"
    # unless overridden, the run-over-run trajectory flags at 1.3x while
    # the --perf gate defaults to perf_gate()'s 1.5x: a median baseline
    # absorbs historic noise but the latest run is still a single sample,
    # so the gate needs the wider band to tolerate machine jitter
    factor = args.regression_factor
    if factor is None:
        factor = 1.5 if args.perf else 1.3
    if args.median_of < 1:
        print("--median-of must be >= 1", file=sys.stderr)
        return 2
    if args.perf and factor <= 1.0:
        print("--regression-factor must be > 1 with --perf", file=sys.stderr)
        return 2
    try:
        records = read_records(args.log)
    except OSError as exc:
        print(f"cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not records:
        print(f"{args.log}: no records", file=sys.stderr)
        return 2

    # a bench history logs {"bench": nodeid, ...}; a run registry logs
    # per-task records keyed by content fingerprint
    if "bench" in records[0]:
        kind, key_field = "bench history", "bench"
    elif "fingerprint" in records[0]:
        kind, key_field = "run registry", "label"
    else:
        print(
            f"{args.log}: records have neither 'bench' nor 'fingerprint' "
            "keys; not a telemetry file this command understands",
            file=sys.stderr,
        )
        return 2

    report = (
        SweepReport(records, straggler_factor=args.straggler_factor)
        if kind == "run registry"
        else None
    )
    entries = trajectory(records, key_field, regression_factor=factor)
    gate = (
        perf_gate(
            records,
            key_field,
            window=args.median_of,
            regression_factor=factor,
        )
        if args.perf
        else None
    )
    # --perf grounds the verdict in the noise-aware gate; otherwise the
    # run-over-run trajectory flags decide
    regressed = [e for e in (gate if gate is not None else entries) if e["regressed"]]

    if fmt == "json":
        doc = {
            "kind": kind,
            "path": str(args.log),
            "n_records": len(records),
            "trajectory": entries,
            "regressed_keys": sorted({str(e["key"]) for e in regressed}),
        }
        if report is not None:
            doc["report"] = report.to_dict()
        if gate is not None:
            doc["perf_gate"] = gate
        print(json.dumps(doc, indent=1))
    else:
        print(f"{args.log}: {len(records)} record(s), {kind}")
        if report is not None:
            print(report.render())
        if entries:
            print(_render_trajectory(entries, key_field))
        if gate is not None:
            print(_render_perf_gate(gate, key_field))
        if regressed:
            what = (
                f">= {factor:g}x their median-of-"
                f"{args.median_of} baseline"
                if gate is not None
                else f">= {factor:g}x their predecessor"
            )
            print(
                f"{len(regressed)} entr{'y' if len(regressed) == 1 else 'ies'} "
                + what
            )
    if regressed and args.fail_on_regression:
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one in-process simulation; optionally export trace/stacks."""
    from .obs import (
        ChromeTraceExporter,
        Profiler,
        SamplingProfiler,
        collapse_stacks,
        format_collapsed,
    )
    from .sched import simulate, workload_from_trace

    if args.sample_hz < 0:
        print("--sample-hz must be >= 0", file=sys.stderr)
        return 2
    for path in (args.trace_out, args.stacks_out):
        if path is not None:
            try:
                _ensure_parent(path)
            except ValueError as exc:
                print(f"invalid output: {exc}", file=sys.stderr)
                return 2
    trace = read_swf(args.trace)
    workload = workload_from_trace(trace)
    if args.max_jobs:
        workload = workload.slice(args.max_jobs)
    backfill = _backfill(args)
    prof = Profiler()
    sampler = SamplingProfiler(hz=args.sample_hz) if args.sample_hz > 0 else None
    if sampler is not None:
        sampler.start()
    try:
        simulate(
            workload,
            trace.system.schedulable_units,
            args.policy,
            backfill,
            profiler=prof,
        )
    except KeyError as exc:
        print(f"unknown policy: {exc}", file=sys.stderr)
        return 2
    finally:
        if sampler is not None:
            sampler.stop()
    print(prof.report())
    payload = prof.to_payload()
    if args.trace_out:
        exporter = ChromeTraceExporter()
        exporter.add_profile(payload, lane="simulate")
        exporter.write(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out} (open in Perfetto)")
    if args.stacks_out:
        samplers = [sampler.to_payload()] if sampler is not None else []
        args.stacks_out.write_text(
            format_collapsed(collapse_stacks([payload], samplers)),
            encoding="utf-8",
        )
        print(f"wrote collapsed stacks to {args.stacks_out}")
    if sampler is not None:
        sp = sampler.to_payload()
        print(
            f"(sampler: {sp['n_samples']} sample(s) at {args.sample_hz:g} Hz, "
            f"{sp['n_unmatched']} outside repro.*)"
        )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential-fuzz the engines against the testkit oracle.

    Exit codes: 0 = every case matched the oracle and passed the
    invariants; 1 = divergence found (a shrunk SWF reproducer is printed,
    or written to ``--out``); 2 = bad arguments.
    """
    from .testkit import FUZZ_POLICIES, fuzz, workload_to_trace
    from .traces.swf import format_swf_lines

    policies = None
    if args.policy is not None:
        policies = [p.strip() for p in args.policy.split(",") if p.strip()]
        unknown = [p for p in policies if p not in FUZZ_POLICIES]
        if not policies or unknown:
            print(
                f"--policy needs a comma-separated subset of "
                f"{sorted(FUZZ_POLICIES)}"
                + (f"; unknown: {unknown}" if unknown else ""),
                file=sys.stderr,
            )
            return 2
    if args.budget < 1 or args.capacity < 1 or args.max_jobs < 2:
        print(
            "--budget and --capacity must be >= 1, --max-jobs >= 2",
            file=sys.stderr,
        )
        return 2
    report = fuzz(
        policies=policies,
        budget=args.budget,
        seed=args.seed,
        capacity=args.capacity,
        max_jobs=args.max_jobs,
    )
    print(report.describe())
    if report.ok:
        return 0
    trace = workload_to_trace(report.divergence.workload, args.capacity)
    if args.out is not None:
        try:
            _ensure_parent(args.out)
        except ValueError as exc:
            print(f"invalid reproducer output: {exc}", file=sys.stderr)
            return 2
        write_swf(trace, args.out)
        print(f"wrote shrunk reproducer to {args.out}")
    else:
        print("shrunk reproducer (SWF):")
        print("\n".join(format_swf_lines(trace)))
    return 1


def _cmd_clone(args: argparse.Namespace) -> int:
    from .traces.synth import fit_calibration, generate_trace

    source = read_swf(args.trace)
    calibration = fit_calibration(source)
    days = args.days or max(source.span_seconds / 86400.0, 1.0)
    clone = generate_trace(calibration, days=days, seed=args.seed)
    write_swf(clone, args.output)
    print(
        f"fitted {source.num_jobs} jobs; wrote a {clone.num_jobs}-job "
        f"statistical clone to {args.output}"
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .core.report import write_report
    from .core.study import CrossSystemStudy

    study = CrossSystemStudy.generate(days=args.days, seed=args.seed)
    if args.report:
        path = write_report(study, args.report)
        print(f"wrote report to {path}")
    else:
        for takeaway in study.takeaways():
            print(takeaway)
    return 0


class _FormatAction(argparse.Action):
    """Reject conflicting output-format flags instead of last-one-wins.

    ``--format text --json`` (or ``--format text --format json``) is almost
    certainly a script bug; silently honouring the last flag would make a
    human-readable pipeline emit JSON (or vice versa), so conflicting
    repeats exit 2 via ``parser.error``.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        value = self.const if self.const is not None else values
        prev = getattr(namespace, self.dest, None)
        if prev is not None and prev != value:
            parser.error(
                f"conflicting output formats: {prev!r} already selected, "
                f"{option_string} asks for {value!r}"
            )
        setattr(namespace, self.dest, value)


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="IPPS'24 cross-system reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic trace as SWF")
    p.add_argument("system", choices=sorted(CALIBRATIONS))
    p.add_argument("-o", "--output", required=True, type=Path)
    p.add_argument("--days", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("validate", help="consistency-check an SWF trace")
    p.add_argument("trace", type=Path)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "analyze",
        help="characterize an SWF trace or a captured event stream "
        "(.jsonl/.npz)",
    )
    p.add_argument("trace", type=Path)
    p.add_argument(
        "--report", type=Path, help="write a markdown report (SWF traces)"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (event streams only)",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("simulate", help="schedule an SWF trace")
    p.add_argument("trace", type=Path)
    p.add_argument(
        "--policy",
        default="fcfs",
        help="queue policy, or a comma-separated list (e.g. fcfs,sjf,f1) "
        "to sweep several policies over the same workload",
    )
    p.add_argument(
        "--backfill", choices=_BACKFILL_MODES, default="easy"
    )
    p.add_argument("--relax", type=float, default=0.1)
    p.add_argument("--max-jobs", type=int, default=0)
    add_run_arguments(p)
    fault = p.add_argument_group("fault injection (docs/RESILIENCE.md)")
    fault.add_argument(
        "--mtbf-hours",
        type=float,
        default=0.0,
        help="per-node mean time between failures; 0 = no node faults",
    )
    fault.add_argument(
        "--mttr-hours", type=float, default=1.0, help="mean time to repair"
    )
    fault.add_argument(
        "--fault-nodes", type=int, default=16, help="node count for failures"
    )
    fault.add_argument(
        "--retries", type=int, default=0, help="resubmissions after a fault"
    )
    fault.add_argument(
        "--backoff", type=float, default=60.0, help="base resubmit delay (s)"
    )
    fault.add_argument(
        "--checkpoint-hours",
        type=float,
        default=0.0,
        help="checkpoint interval; 0 = no checkpointing",
    )
    fault.add_argument(
        "--inject-status",
        action="store_true",
        help="sample FAILED/KILLED faults from the trace's own status mix",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0, help="fault-process RNG seed"
    )
    obs = p.add_argument_group("observability (docs/OBSERVABILITY.md)")
    obs.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write the structured event stream as JSONL",
    )
    obs.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write metrics (.prom = Prometheus text, else JSON)",
    )
    obs.add_argument(
        "--metrics-interval",
        type=float,
        default=600.0,
        help="sim-time resolution (s) of the gauge time series",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="time the engine hot paths and print a breakdown",
    )
    telem = p.add_argument_group("sweep telemetry (docs/OBSERVABILITY.md)")
    telem.add_argument(
        "--run-log",
        type=Path,
        default=None,
        help="append one JSONL run record per sweep cell (fingerprint, "
        "wall seconds, worker, cache hit/miss, result metrics); render "
        "with `repro report`",
    )
    telem.add_argument(
        "--progress",
        choices=("none", "tty", "jsonl"),
        default="none",
        help="live per-cell progress on stderr as cells complete",
    )
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "report",
        help="render a runs.jsonl / bench-history file into aggregate "
        "tables and a perf trajectory",
    )
    p.add_argument("log", type=Path)
    p.add_argument(
        "--straggler-factor",
        type=float,
        default=3.0,
        help="flag tasks slower than this multiple of the median wall",
    )
    p.add_argument(
        "--regression-factor",
        type=float,
        default=None,
        help="flag entries at least this multiple of their predecessor "
        "(default 1.3), or with --perf of their median-of-K baseline "
        "(default 1.5 — the single latest sample needs headroom for "
        "machine jitter)",
    )
    p.add_argument(
        "--perf",
        action="store_true",
        help="noise-aware perf gate: compare each key's latest wall "
        "against the median of its preceding runs instead of the "
        "run-over-run trajectory",
    )
    p.add_argument(
        "--median-of",
        type=int,
        default=5,
        metavar="K",
        help="baseline window for --perf: median of up to K preceding "
        "runs per key",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        action=_FormatAction,
        default=None,
        help="output format (default text); conflicting repeats exit 2",
    )
    p.add_argument(
        "--json",
        action=_FormatAction,
        nargs=0,
        const="json",
        dest="format",
        help="shorthand for --format json",
    )
    p.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 if any entry is flagged (trajectory, or the perf "
        "gate under --perf)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "profile",
        help="profile one simulation run: span breakdown, Chrome trace, "
        "collapsed stacks (docs/OBSERVABILITY.md, 'Performance tracing')",
    )
    p.add_argument("trace", type=Path)
    p.add_argument("--policy", default="fcfs", help="queue policy")
    p.add_argument(
        "--backfill", choices=_BACKFILL_MODES, default="easy"
    )
    p.add_argument("--relax", type=float, default=0.1)
    p.add_argument("--max-jobs", type=int, default=0)
    p.add_argument(
        "--sample-hz",
        type=float,
        default=0.0,
        metavar="HZ",
        help="also attach a sampling profiler at HZ samples/s "
        "(0 = spans only)",
    )
    p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON (open in Perfetto / "
        "chrome://tracing)",
    )
    p.add_argument(
        "--stacks-out",
        type=Path,
        default=None,
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "fuzz",
        help="differential-fuzz the engines against the reference oracle "
        "(docs/TESTING.md)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=200,
        help="randomized workloads per policy configuration",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--policy",
        default=None,
        help="comma-separated configurations to fuzz "
        "(fcfs/sjf = pure queue order, easy = FCFS+EASY backfill, "
        "<policy>-easy = that queue policy + EASY, e.g. sjf-easy or "
        "fairshare-easy, conservative = FCFS+conservative backfill, "
        "<policy>-conservative = sjf or wfp3 + conservative backfill); "
        "default: every configuration (docs/TESTING.md)",
    )
    p.add_argument(
        "--capacity", type=int, default=16, help="fuzzed cluster size"
    )
    p.add_argument(
        "--max-jobs", type=int, default=12, help="jobs per fuzzed workload"
    )
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the shrunk SWF reproducer here on divergence "
        "(default: print it)",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "clone", help="fit a workload model to an SWF trace and regenerate"
    )
    p.add_argument("trace", type=Path)
    p.add_argument("-o", "--output", required=True, type=Path)
    p.add_argument("--days", type=float, default=0.0, help="0 = source span")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_clone)

    p = sub.add_parser("study", help="run the full five-system study")
    p.add_argument("--days", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", type=Path, help="write a markdown report")
    p.set_defaults(fn=_cmd_study)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
