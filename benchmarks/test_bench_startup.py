"""Benchmark: start-up of a process that imports the package.

Times fresh interpreters that run ``import repro, repro.experiments,
repro.core`` (the import perfbench's ``setup_s`` starts with) and records
the median wall time and the number of modules loaded into the bench
history (``BENCH_OUT``; docs/PERFORMANCE.md, "Start-up").  It sets no
time bound: it checks only that the import loads no part of the scheduler.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro

#: the package's source root, so the children import this checkout
SRC = str(Path(repro.__file__).resolve().parent.parent)
IMPORTS = "import repro, repro.experiments, repro.core"
ROUNDS = 15


def _fresh(code: str) -> tuple[float, str]:
    """(wall seconds, standard output) of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return time.perf_counter() - t0, out.stdout


def test_bench_startup(record_property):
    walls = [_fresh(IMPORTS)[0] for _ in range(ROUNDS)]
    _, listing = _fresh(
        f"import json, sys\n{IMPORTS}\nprint(json.dumps(sorted(sys.modules)))"
    )
    modules = json.loads(listing)
    record_property("import_s", round(statistics.median(walls), 4))
    record_property("modules", len(modules))
    sched = [m for m in modules if m == "repro.sched" or m.startswith("repro.sched.")]
    assert sched == [], sched
