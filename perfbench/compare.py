#!/usr/bin/env python3
"""Compare the metric medians of two sets of benchmark runs.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench/results.jsonl``.  Records are grouped by workload and trace
mode; a group is compared only when every record in both files ran on
the same environment fingerprint (CPU, cores, Python, NumPy, BLAS and its
threads).  Exit status 2 means some group was refused for that reason.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                groups[record["workload"], record["trace"]].append(record)
    return groups


def main(argv=None) -> int:
    base_path, new_path = (argv or sys.argv[1:])[:2]
    base, new = load(base_path), load(new_path)
    status = 0
    for key in sorted(base.keys() & new.keys()):
        records = base[key] + new[key]
        envs = {json.dumps(r["environment"], sort_keys=True) for r in records}
        workload, trace = key
        if len(envs) > 1:
            print(f"{workload} (trace {trace}): refused, environments differ")
            status = 2
            continue
        print(f"{workload} (trace {trace}): {len(base[key])} vs {len(new[key])} runs")
        for name in base[key][0]["metrics"]:
            a = statistics.median(r["metrics"][name] for r in base[key])
            b = statistics.median(r["metrics"][name] for r in new[key])
            change = f"{100 * (b - a) / a:+7.1f}%" if a else "    n/a"
            print(f"  {name:<24} {a:12.6g} -> {b:12.6g}  {change}")
    return status


if __name__ == "__main__":
    sys.exit(main())
