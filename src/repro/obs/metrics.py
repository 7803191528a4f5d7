"""Metrics registry: counters, gauges, log-bucketed histograms, time series.

A :class:`Metrics` instance is handed to the simulation engines
(``simulate(..., metrics=Metrics())``); they register named instruments
lazily and update them as the run unfolds.  On top of the three classic
instrument types the registry keeps a **sim-time series**: every gauge is
sampled at a configurable sim-time resolution (``sample_interval``), which
is how the utilization / queue-depth timelines the paper plots (Fig 3,
Fig 9/10 feedback loops) fall out of a single traced run.

Two export formats:

* :meth:`Metrics.to_dict` / :meth:`Metrics.to_json` — structured JSON for
  downstream analysis (what ``repro.cli simulate --metrics-out m.json``
  writes);
* :meth:`Metrics.to_prometheus` — the Prometheus text exposition format
  (``--metrics-out m.prom``), so a fleet of simulation workers can be
  scraped like any other service.

Histogram buckets are **fixed and log-spaced** (a third of a decade per
bucket from 1 ms to 10 Ms by default) so distributions from different runs
line up bucket for bucket.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "DEFAULT_BUCKETS",
]

#: default histogram bounds: log-spaced, 3 buckets per decade, 1e-3 .. 1e7
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (k / 3.0) for k in range(-9, 22)
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (free cores, queue depth, utilization...)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with log-spaced bounds.

    ``counts`` has one slot per bound plus a final overflow slot; bucket
    ``i`` counts observations ``<= bounds[i]`` (and above the previous
    bound), matching Prometheus's cumulative ``le`` semantics on export.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        bounds = DEFAULT_BUCKETS if bounds is None else tuple(bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        return self.sum / self.count if self.count else math.nan


class Metrics:
    """Named-instrument registry plus a gauge time-series sampler.

    Parameters
    ----------
    sample_interval:
        Sim-time resolution (seconds) of the gauge time series; ``None``
        disables sampling (instruments still work).
    """

    def __init__(self, sample_interval: float | None = None) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive or None")
        self.sample_interval = sample_interval
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._next_sample: float | None = None
        self.series_times: list[float] = []
        self._series: dict[str, list[float]] = {}

    # ------------------------------------------------------------ registry
    def _get(self, name: str, cls, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge (sampled into the time series)."""
        gauge = self._get(name, Gauge, help=help)
        self._series.setdefault(name, [])
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get(name, Histogram, help=help, bounds=bounds)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._instruments[name]

    # ------------------------------------------------------------ sampling
    def sample(self, now: float) -> None:
        """Record every gauge at each sample boundary crossed up to ``now``.

        Engines call this with the *pre-event* state at every simulation
        instant; the recorded series is therefore the value that held over
        each ``[boundary, boundary + interval)`` window.  The first call
        anchors the boundary grid at its ``now``.
        """
        interval = self.sample_interval
        if interval is None:
            return
        if self._next_sample is None:
            self._next_sample = float(now)
        while self._next_sample <= now:
            self.series_times.append(self._next_sample)
            for name, values in self._series.items():
                instrument = self._instruments.get(name)
                values.append(instrument.value if instrument is not None else 0.0)
            self._next_sample += interval

    @property
    def series(self) -> dict[str, list[float]]:
        """Sampled per-gauge time series (aligned with ``series_times``)."""
        return {name: list(values) for name, values in self._series.items()}

    # ------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """Structured snapshot of every instrument plus the time series."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
            else:
                histograms[name] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "min": inst.min if inst.count else None,
                    "max": inst.max if inst.count else None,
                    "mean": inst.mean if inst.count else None,
                    "bounds": list(inst.bounds),
                    "counts": list(inst.counts),
                }
        payload: dict = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if self.sample_interval is not None:
            payload["series"] = {
                "interval": self.sample_interval,
                "t": list(self.series_times),
                **self.series,
            }
        return payload

    def to_json(self, indent: int | None = 1) -> str:
        """JSON rendering of :meth:`to_dict` (NaN-free)."""

        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [clean(v) for v in obj]
            if isinstance(obj, float) and not math.isfinite(obj):
                return None
            return obj

        return json.dumps(clean(self.to_dict()), indent=indent, allow_nan=False)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (time series excluded).

        Instrument names are sanitized to the exposition grammar
        ``[a-zA-Z_:][a-zA-Z0-9_:]*`` — any other character becomes ``_``
        and a leading digit gains a ``_`` prefix — so registries keyed by
        free-form names (``sim.jobs/started``) still scrape cleanly.
        """

        def fmt(value: float) -> str:
            if math.isinf(value):
                return "+Inf" if value > 0 else "-Inf"
            return repr(value)

        def sanitize(name: str) -> str:
            name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
            if not name or not re.match(r"[a-zA-Z_:]", name[0]):
                name = "_" + name
            return name

        lines: list[str] = []
        for raw_name, inst in sorted(self._instruments.items()):
            name = sanitize(raw_name)
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            if isinstance(inst, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {fmt(inst.value)}")
            elif isinstance(inst, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {fmt(inst.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                for bound, count in zip(inst.bounds, inst.counts):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{fmt(bound)}"}} {cumulative}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {inst.count}')
                lines.append(f"{name}_sum {fmt(inst.sum)}")
                lines.append(f"{name}_count {inst.count}")
        return "\n".join(lines) + "\n"
