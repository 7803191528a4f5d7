#!/usr/bin/env python3
"""Capture the reference outputs the benchmark compares every pass with.

    python3 perfbench/capture.py                      # every workload, seeds 0-12
    python3 perfbench/capture.py --workload backfill --seeds 0 7

Runs one untraced pass per workload and seed and writes the operations'
outputs to ``perfbench/references/<workload>.json``, merged with the seeds
already stored there.  Recapture only when a change to the package is
meant to change results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import bootstrap, one_pass  # noqa: E402

#: the experiments' default seed, the seeds a benchmark run is usually
#: given, and one held out from tuning (12)
SEEDS = tuple(range(13))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = p.parse_args(argv)
    bootstrap()
    from perfbench.workloads import WORKLOADS, load_references, reference_path

    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        refs = load_references(name)
        for seed in args.seeds:
            if workload.input_days is None:
                result = one_pass(workload, seed, traced=False)
            else:
                with workload.supplied(workload.make_inputs(seed), seed):
                    result = one_pass(workload, seed, traced=False)
            if result.ops is None:
                print(result.error, file=sys.stderr)
                return 1
            refs[str(seed)] = result.ops
            print(f"{name} seed {seed}: {len(result.ops)} operations, "
                  f"{result.wall:.2f} s", flush=True)
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        ordered = dict(sorted(refs.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(ordered, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
