"""CLI entry point: ``python -m repro.experiments <id|all> [--days D] [--seed S]``."""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from ..runner.options import add_run_arguments, run_options_from_args
from . import REGISTRY, experiment_module
from .common import DEFAULT_DAYS, DEFAULT_SEED

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Run one or all experiments and print their reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="Experiments: "
        + "; ".join(f"{k} ({v[1]})" for k, v in REGISTRY.items()),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig1, table2) or 'all' / 'list'",
    )
    parser.add_argument(
        "--days",
        type=float,
        default=DEFAULT_DAYS,
        help=f"synthetic trace window in days (default {DEFAULT_DAYS})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="generator seed"
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=0,
        help="cap simulated jobs (experiments that take max_jobs; 0 = default)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        help="also write <exp>.txt and <exp>.json into DIR",
    )
    add_run_arguments(parser)
    tracing = parser.add_argument_group(
        "performance tracing (docs/OBSERVABILITY.md, 'Performance tracing')"
    )
    tracing.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the sweep (open in "
        "Perfetto / chrome://tracing)",
    )
    tracing.add_argument(
        "--stacks-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    tracing.add_argument(
        "--sample-hz",
        type=float,
        default=0.0,
        metavar="HZ",
        help="also run a sampling profiler in each worker at HZ samples/s "
        "(0 = spans only)",
    )
    tracing.add_argument(
        "--fine-spans",
        action="store_true",
        help="record the engines' per-scheduling-round spans (policy sort, "
        "backfill scan, event drain); detailed but can slow the sweep by "
        "tens of percent — the default records coarse cell/simulate spans",
    )
    args = parser.parse_args(argv)
    if args.sample_hz < 0:
        parser.error("--sample-hz must be >= 0")
    if args.sample_hz > 0 and not (args.trace_out or args.stacks_out):
        parser.error("--sample-hz requires --trace-out or --stacks-out")
    if args.fine_spans and not (args.trace_out or args.stacks_out):
        parser.error("--fine-spans requires --trace-out or --stacks-out")
    perf = None
    if args.trace_out or args.stacks_out:
        from ..obs import PerfConfig

        perf = PerfConfig(
            sampler_hz=args.sample_hz,
            fine_spans=args.fine_spans,
            trace_out=args.trace_out,
            stacks_out=args.stacks_out,
        )

    if args.experiment == "list":
        for key, (_, desc) in REGISTRY.items():
            print(f"{key:8s} {desc}")
        return 0
    ids = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    try:
        # before the options open the cache and journal, so that an unknown
        # id leaves no files behind
        modules = [experiment_module(exp_id) for exp_id in ids]
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        # one ResultCache and one journal for every experiment of the run,
        # so the cache's hit/miss counters can be reported per experiment
        options = replace(run_options_from_args(args), perf=perf)
    except ValueError as exc:
        parser.error(str(exc))
    cache = options.cache
    with options.journal or nullcontext():
        for exp_id, module in zip(ids, modules):
            t0 = time.time()
            hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
            kwargs = {"days": args.days, "seed": args.seed}
            params = inspect.signature(module.run).parameters
            if args.max_jobs > 0 and "max_jobs" in params:
                kwargs["max_jobs"] = args.max_jobs
            if "options" in params:
                kwargs["options"] = options
            result = module.run(**kwargs)
            print(result.render())
            if args.save:
                txt, js = result.save(args.save)
                print(f"(saved {txt} and {js})")
            if cache is not None and "options" in params:
                print(
                    f"(cache {args.cache_dir}: {cache.hits - hits0} hit(s), "
                    f"{cache.misses - misses0} miss(es))"
                )
            if perf is not None:
                if "options" not in params:
                    print(
                        f"({exp_id} does not support performance tracing; "
                        "--trace-out/--stacks-out ignored)",
                        file=sys.stderr,
                    )
                elif perf.trace is not None:
                    written = [
                        str(p) for p in (args.trace_out, args.stacks_out) if p
                    ]
                    print(
                        f"(trace: {perf.trace.n_cells} cell(s) across "
                        f"{len(perf.trace.workers())} worker(s) -> "
                        + ", ".join(written)
                        + ")"
                    )
            print(f"\n({exp_id} completed in {time.time() - t0:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
