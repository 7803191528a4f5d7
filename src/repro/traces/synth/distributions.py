"""Parametric distributions used by the trace generators.

All distributions draw from an explicit ``numpy.random.Generator`` and are
fully vectorized.  Runtimes are modeled as lognormal mixtures (the standard
fit for batch-job runtimes), sizes as discrete distributions over valid
allocation shapes, and heavy tails via bounded Pareto components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "LogNormalDist",
    "BoundedParetoDist",
    "UniformDist",
    "ConstantDist",
    "MixtureDist",
    "DiscreteDist",
    "ClippedDist",
    "SizeConditionalRuntime",
    "lognormal_from_median",
    "choice_cdf",
    "sample_cdf",
]

#: how far probabilities may sum from 1, as ``Generator.choice`` allows
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``rng.choice(k, size, p=p)`` searches, built once.

    ``Generator.choice`` with ``p`` validates ``p``, then draws
    ``cdf.searchsorted(rng.random(size), side="right")`` with
    ``cdf = p.cumsum(); cdf /= cdf[-1]``.  This returns that ``cdf`` after
    the same checks (finite, non-negative, summing to 1 within
    ``sqrt(eps)``), so that :func:`sample_cdf` draws exactly what
    ``choice`` would, from the same random stream, without rebuilding and
    revalidating ``p`` on every call.  A 2-D ``p`` holds one distribution
    per row and gets one CDF per row, bit for bit as row by row.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2):
        raise ValueError("p must be 1- or 2-dimensional")
    rows = np.atleast_2d(p)
    total = rows.sum(axis=1)
    if np.isnan(total).any():
        raise ValueError("probabilities contain NaN")
    if (rows < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(total - 1.0) > _P_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf.reshape(p.shape)


def sample_cdf(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` indices from a :func:`choice_cdf` CDF, as ``choice`` does."""
    return cdf.searchsorted(rng.random(size), side="right")


class Distribution(Protocol):
    """Anything that can draw ``size`` samples from an rng."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray: ...

    def mean(self) -> float:
        """Analytic (or approximate) mean, for load calibration."""
        ...


@dataclass(frozen=True)
class LogNormalDist:
    """Lognormal parameterized by its median and log-space sigma (natural log)."""

    median: float
    sigma: float

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(mean=np.log(self.median), sigma=self.sigma, size=size)

    def mean(self) -> float:
        return float(self.median * np.exp(self.sigma**2 / 2))


def lognormal_from_median(median: float, sigma: float) -> LogNormalDist:
    """Convenience constructor mirroring the calibration tables."""
    return LogNormalDist(median=median, sigma=sigma)


@dataclass(frozen=True)
class BoundedParetoDist:
    """Pareto truncated to ``[lo, hi]`` with shape ``alpha`` (heavy tails)."""

    lo: float
    hi: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0 < self.lo < self.hi) or self.alpha <= 0:
            raise ValueError("need 0 < lo < hi and alpha > 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        l_a, h_a = self.lo**self.alpha, self.hi**self.alpha
        # inverse-CDF of the bounded Pareto
        return (-(u * h_a - u * l_a - h_a) / (h_a * l_a)) ** (-1.0 / self.alpha)

    def mean(self) -> float:
        a, lo, hi = self.alpha, self.lo, self.hi
        if abs(a - 1.0) < 1e-12:
            return float((np.log(hi / lo)) / (1 / lo - 1 / hi))
        num = a / (a - 1) * (lo ** (1 - a) - hi ** (1 - a))
        den = lo ** (-a) - hi ** (-a)
        return float(num / den)


@dataclass(frozen=True)
class UniformDist:
    """Uniform on ``[lo, hi]``."""

    lo: float
    hi: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class ConstantDist:
    """Degenerate distribution."""

    value: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=float)

    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class MixtureDist:
    """Finite mixture of component distributions."""

    components: tuple
    weights: tuple

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights):
            raise ValueError("components and weights must align")
        total = float(sum(self.weights))
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @classmethod
    def of(cls, *pairs: tuple[float, "Distribution"]) -> "MixtureDist":
        """Build from ``(weight, component)`` pairs."""
        weights = tuple(w for w, _ in pairs)
        comps = tuple(c for _, c in pairs)
        return cls(components=comps, weights=weights)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choice = rng.choice(len(self.components), size=size, p=np.asarray(self.weights))
        out = np.empty(size, dtype=float)
        for i, comp in enumerate(self.components):
            mask = choice == i
            n = int(mask.sum())
            if n:
                out[mask] = comp.sample(rng, n)
        return out

    def mean(self) -> float:
        return float(sum(w * c.mean() for w, c in zip(self.weights, self.components)))


@dataclass(frozen=True)
class DiscreteDist:
    """Distribution over explicit values (e.g. valid allocation sizes)."""

    values: tuple
    probs: tuple

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must align")
        if not np.isclose(sum(self.probs), 1.0, atol=1e-6):
            raise ValueError("probs must sum to 1")

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "DiscreteDist":
        """Build from ``(prob, value)`` pairs."""
        return cls(values=tuple(v for _, v in pairs), probs=tuple(p for p, _ in pairs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(np.asarray(self.values, dtype=float), size=size, p=np.asarray(self.probs))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))


@dataclass(frozen=True)
class SizeConditionalRuntime:
    """Runtime distribution conditioned on the job's core count.

    ``buckets`` is a tuple of ``(max_cores_inclusive, distribution)`` pairs in
    ascending threshold order; the last bucket should use ``float('inf')``.
    This models the empirical coupling between job size and runtime that
    drives the paper's core-hour domination results (Fig 2): e.g. on Helios,
    >8-GPU jobs are the multi-hour training runs while 1-GPU jobs are blips.
    """

    buckets: tuple

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ValueError("need at least one bucket")
        thresholds = [t for t, _ in self.buckets]
        if thresholds != sorted(thresholds):
            raise ValueError("bucket thresholds must be ascending")
        if thresholds[-1] != float("inf"):
            raise ValueError("last bucket must cover to infinity")

    def sample_for(self, rng: np.random.Generator, cores: np.ndarray) -> np.ndarray:
        """Draw one runtime per entry of ``cores``."""
        cores = np.asarray(cores, dtype=float)
        out = np.empty(len(cores), dtype=float)
        lo = -np.inf
        for hi, dist in self.buckets:
            mask = (cores > lo) & (cores <= hi)
            n = int(mask.sum())
            if n:
                out[mask] = dist.sample(rng, n)
            lo = hi
        return out

    def mean_for(self, cores: np.ndarray) -> np.ndarray:
        """Bucket means per entry of ``cores`` (for load estimation)."""
        cores = np.asarray(cores, dtype=float)
        out = np.empty(len(cores), dtype=float)
        lo = -np.inf
        for hi, dist in self.buckets:
            mask = (cores > lo) & (cores <= hi)
            if mask.any():
                out[mask] = dist.mean()
            lo = hi
        return out


@dataclass(frozen=True)
class ClippedDist:
    """Wrap a distribution, clipping samples to ``[lo, hi]``."""

    inner: Distribution
    lo: float
    hi: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.clip(self.inner.sample(rng, size), self.lo, self.hi)

    def mean(self) -> float:
        # approximate: clipping shifts the mean; estimate via quadrature sample
        rng = np.random.default_rng(0)
        return float(self.sample(rng, 4096).mean())
