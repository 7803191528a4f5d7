"""The host's speed, measured by fixed reference work run between passes.

A shared host's speed drifts by up to 2x over periods of seconds to
minutes: other tenants contend for the cores, caches and memory, and CPU
time inflates with wall time.  A whole run can fall in a slow period, so
no statistic of a run's raw times is steady from run to run.  On a 2-core
Xeon VM, the median pass of eight 45 s runs of ``usecases`` spread by 17%
(quartile distance over median) in host seconds and by 5% with each pass
scaled by the speed probed around it (``scaled``); for ``characterize``,
9% and 3% over six runs.

The reference work is a fixed mix of what the program does: a NumPy sort
and scan over a million values and an interpreter loop folding rows into a
dict.  It runs no code of the package, so a change to the package moves
the program's times and not the factor.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

#: typical time of ``reference_work`` on the 2-core Xeon VM the benchmark
#: was tuned on; scaled times are seconds of that host
REFERENCE_S = 0.19
#: runs of the reference work per probe
PROBE_REPEATS = 2


@functools.cache
def _inputs() -> tuple[np.ndarray, list[tuple[int, float]]]:
    values = np.random.default_rng(0).random(1_000_000)
    rows = [(i, float(x)) for i, x in enumerate(values[:150_000])]
    return values, rows


def reference_work() -> float:
    values, rows = _inputs()
    order = np.argsort(values, kind="stable")
    total = float(np.cumsum(values[order])[-1])
    sums: dict[int, float] = {}
    for i, x in rows:
        sums[i % 4096] = sums.get(i % 4096, 0.0) + x
    return total + sums[0]


def probe() -> list[float]:
    """Seconds of each of ``PROBE_REPEATS`` runs of the reference work."""
    _inputs()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return times


def factors(probes: list[list[float]]) -> list[float]:
    """Reference-host seconds per host second between consecutive probes:
    the reference time over the median run of the two probes."""
    return [REFERENCE_S / statistics.median(before + after)
            for before, after in zip(probes, probes[1:])]


def scaled(seconds: list[float], probes: list[list[float]]) -> list[float]:
    """``seconds[i]``, timed between ``probes[i]`` and ``probes[i + 1]``, in
    reference-host seconds."""
    assert len(probes) == len(seconds) + 1
    return [s * f for s, f in zip(seconds, factors(probes))]
