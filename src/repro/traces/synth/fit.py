"""Fit workload-model parameters from an observed trace.

The calibrations in :mod:`.calibration` were hand-derived from the paper's
reported statistics.  This module goes the other way: given *any* trace
(a real SWF log, or one of our synthetic ones), estimate the generative
pieces —

* runtime distribution: a lognormal mixture fitted with EM;
* size distribution: the empirical discrete distribution;
* diurnal profile: empirical hour-of-day submission weights;
* status model: empirical P(status | length class) tables;
* wait model: lognormal fit + empirical class multipliers;
* session structure: burst statistics from the arrival stream —

and assemble them into a :class:`~.calibration.SystemCalibration` whose
:func:`~.generator.generate_trace` output is a statistical clone of the
input.  This is the "model your own cluster" workflow the paper's released
tooling aims to enable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...frame import hourly_counts
from ..categorize import trace_length_class, trace_size_class
from ..schema import JobStatus, Trace
from .behavior import QueueFeedback, StatusModel, WaitModel
from .calibration import SystemCalibration
from .distributions import (
    ClippedDist,
    DiscreteDist,
    LogNormalDist,
    MixtureDist,
)
from .diurnal import DiurnalProfile

__all__ = ["LogNormalMixtureFit", "fit_lognormal_mixture", "fit_calibration"]


@dataclass(frozen=True)
class LogNormalMixtureFit:
    """EM result for a 1-D lognormal mixture."""

    weights: np.ndarray
    medians: np.ndarray
    sigmas: np.ndarray
    log_likelihood: float
    n_iter: int

    def to_distribution(self, lo: float, hi: float) -> ClippedDist:
        """Materialize as a sampleable (clipped) mixture distribution."""
        comps = tuple(
            LogNormalDist(float(m), float(max(s, 1e-3)))
            for m, s in zip(self.medians, self.sigmas)
        )
        weights = self.weights / self.weights.sum()
        return ClippedDist(
            MixtureDist(components=comps, weights=tuple(float(w) for w in weights)),
            lo=lo,
            hi=hi,
        )


def fit_lognormal_mixture(
    values: np.ndarray,
    n_components: int = 3,
    max_iter: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> LogNormalMixtureFit:
    """EM for a mixture of lognormals (= Gaussian mixture in log space).

    Initialization: quantile-spread means with equal weights.  Components
    that collapse (tiny weight or variance) are re-seeded once, then
    floored — robust enough for runtime data spanning many decades.
    """
    values = np.asarray(values, dtype=float)
    values = values[values > 0]
    if len(values) < n_components * 3:
        raise ValueError("not enough positive observations to fit a mixture")
    x = np.log(values)
    n, k = len(x), n_components

    qs = np.linspace(0.1, 0.9, k)
    mu = np.quantile(x, qs)
    sigma = np.full(k, max(x.std() / k, 1e-2))
    w = np.full(k, 1.0 / k)

    def log_pdf(mu_, sigma_):
        return (
            -0.5 * ((x[:, None] - mu_[None, :]) / sigma_[None, :]) ** 2
            - np.log(sigma_[None, :])
            - 0.5 * np.log(2 * np.pi)
        )

    prev_ll = -np.inf
    it = 0
    for it in range(1, max_iter + 1):
        # E step (log-sum-exp for stability)
        log_resp = np.log(np.maximum(w, 1e-300))[None, :] + log_pdf(mu, sigma)
        m = log_resp.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(log_resp - m).sum(axis=1))
        resp = np.exp(log_resp - log_norm[:, None])
        ll = float(log_norm.sum())

        # M step
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-10)
        w = nk / n
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        sigma = np.sqrt(np.maximum(var, 1e-6))

        if abs(ll - prev_ll) < tol * max(abs(prev_ll), 1.0):
            prev_ll = ll
            break
        prev_ll = ll

    order = np.argsort(mu)
    return LogNormalMixtureFit(
        weights=w[order],
        medians=np.exp(mu[order]),
        sigmas=sigma[order],
        log_likelihood=prev_ll,
        n_iter=it,
    )


def _fit_sizes(cores: np.ndarray, max_values: int = 24) -> DiscreteDist:
    """Empirical discrete size distribution (top values + rounding tail)."""
    uniq, counts = np.unique(cores, return_counts=True)
    if len(uniq) > max_values:
        top = np.argsort(-counts)[:max_values]
        uniq, counts = uniq[top], counts[top]
        order = np.argsort(uniq)
        uniq, counts = uniq[order], counts[order]
    probs = counts / counts.sum()
    return DiscreteDist(values=tuple(float(v) for v in uniq), probs=tuple(float(p) for p in probs))


def _fit_diurnal(trace: Trace) -> DiurnalProfile:
    # adding a constant keeps the times sorted
    local = trace.submit_times_sorted() + trace.system.tz_offset_hours * 3600.0
    counts = hourly_counts(local) + 1.0  # smoothing
    return DiurnalProfile(weights=tuple(counts))


def _fit_status(trace: Trace) -> StatusModel:
    statuses = trace["status"]
    l_cls = trace_length_class(trace)
    pass_by_length = []
    killed_share = []
    for c in range(3):
        mask = l_cls == c
        if mask.sum() < 5:
            pass_by_length.append(0.7)
            killed_share.append(0.6)
            continue
        sub = statuses[mask]
        p_pass = float(np.mean(sub == int(JobStatus.PASSED)))
        non_pass = sub[sub != int(JobStatus.PASSED)]
        k_share = (
            float(np.mean(non_pass == int(JobStatus.KILLED)))
            if len(non_pass)
            else 0.6
        )
        pass_by_length.append(p_pass)
        killed_share.append(k_share)
    return StatusModel(
        pass_by_length=tuple(pass_by_length), killed_share=tuple(killed_share)
    )


def _fit_waits(trace: Trace) -> WaitModel:
    wait = trace["wait_time"]
    positive = wait[wait > 5.0]
    zero_frac = float(np.mean(wait <= 5.0))
    if len(positive) < 10:
        base = LogNormalDist(10.0, 1.0)
    else:
        logs = np.log(positive)
        base = LogNormalDist(float(np.exp(np.median(logs))), float(max(logs.std(), 0.05)))

    def multipliers(classes: np.ndarray) -> tuple:
        overall = float(np.mean(wait)) or 1.0
        out = []
        for c in range(3):
            mask = classes == c
            out.append(
                float(np.mean(wait[mask]) / overall) if mask.sum() >= 5 else 1.0
            )
        return tuple(out)

    return WaitModel(
        base=base,
        zero_wait_fraction=zero_frac,
        size_mult=multipliers(trace_size_class(trace)),
        length_mult=multipliers(trace_length_class(trace)),
    )


def _fit_sessions(trace: Trace, gap_threshold: float = 300.0) -> tuple[float, LogNormalDist]:
    """Mean session size and within-session gap fit from the arrival stream."""
    gaps = trace.arrival_intervals()
    if len(gaps) == 0:
        return 2.0, LogNormalDist(30.0, 1.0)
    in_session = gaps[gaps < gap_threshold]
    session_breaks = int((gaps >= gap_threshold).sum()) + 1
    mean_session = max(1.0, (len(gaps) + 1) / session_breaks)
    if len(in_session) >= 10:
        positive = np.maximum(in_session, 0.2)
        logs = np.log(positive)
        gap_dist = LogNormalDist(
            float(np.exp(np.median(logs))), float(max(logs.std(), 0.05))
        )
    else:
        gap_dist = LogNormalDist(30.0, 1.0)
    return float(mean_session), gap_dist


def fit_calibration(
    trace: Trace,
    n_runtime_components: int = 3,
    name_suffix: str = " (fitted)",
) -> SystemCalibration:
    """Fit a full :class:`SystemCalibration` from an observed trace.

    The fitted model reuses the observed system spec; job rate, user count
    and repetition structure are taken from simple empirical statistics.
    The result plugs straight into :func:`generate_trace`.
    """
    if trace.num_jobs < 100:
        raise ValueError("need at least 100 jobs to fit a workload model")
    runtime_fit = fit_lognormal_mixture(
        trace["runtime"], n_components=n_runtime_components
    )
    rt_lo = float(max(trace["runtime"].min(), 1.0))
    rt_hi = float(trace["runtime"].max() * 1.5)

    days = max(trace.span_seconds / 86400.0, 1e-6)
    n_users = int(len(np.unique(trace["user_id"]))) or 1
    mean_session, gap_dist = _fit_sessions(trace)

    wall = trace["req_walltime"]
    has_wall = np.isfinite(wall)
    if has_wall.mean() > 0.5:
        factors = wall[has_wall] / np.maximum(trace["runtime"][has_wall], 1.0)
        factors = factors[(factors >= 1.0) & (factors < 100.0)]
        if len(factors) >= 10:
            logs = np.log(factors)
            walltime_factor = ClippedDist(
                LogNormalDist(float(np.exp(np.median(logs))), float(max(logs.std(), 0.05))),
                1.01,
                50.0,
            )
        else:
            walltime_factor = ClippedDist(LogNormalDist(1.8, 0.5), 1.05, 12.0)
    else:
        walltime_factor = None

    return SystemCalibration(
        system=trace.system,
        jobs_per_day=trace.num_jobs / days,
        n_users=n_users,
        configs_per_user_mean=8.0,
        config_zipf_s=1.6,
        config_stickiness=0.8,
        size_dist=_fit_sizes(trace["cores"]),
        size_rounding=1,
        runtime_dist=runtime_fit.to_distribution(rt_lo, rt_hi),
        runtime_jitter_sigma=0.1,
        session_mean_jobs=mean_session,
        gap_dist=gap_dist,
        diurnal=_fit_diurnal(trace),
        wait=_fit_waits(trace),
        status=_fit_status(trace),
        queue_feedback=QueueFeedback(),
        walltime_factor=walltime_factor,
        notes={"fitted_from": trace.system.name + name_suffix},
    )
