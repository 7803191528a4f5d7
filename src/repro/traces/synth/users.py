"""User population and session-based arrival model.

The paper's §V shows per-user behaviour is highly structured: users resubmit
a small pool of "resource configurations" (Fig 8), arrive in bursts, and
adapt to system load.  We model each user as:

* a pool of *configs* ``(cores, median runtime)`` drawn from system-level
  priors, with Zipf-weighted selection (a few dominant configs per user);
* a *session* process: sessions start at diurnally-modulated times; each
  session contains a geometric number of jobs with short lognormal gaps,
  and sticks to one config with high probability (users rerun the same
  job back-to-back).

Burstiness from sessions is what produces the small *median* arrival
intervals the paper reports (Fig 1b) even at modest mean rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, choice_cdf, sample_cdf
from .diurnal import SECONDS_PER_DAY, DiurnalProfile

__all__ = ["UserPopulation", "ArrivalBatch", "generate_arrivals", "zipf_weights"]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf weights ``w_i ∝ (i+1)^-s`` for ``n`` ranks."""
    if n <= 0:
        raise ValueError("need at least one config")
    w = (np.arange(1, n + 1, dtype=float)) ** (-s)
    return w / w.sum()


@dataclass
class UserPopulation:
    """Concrete user pool with per-user config tables.

    ``config_cores``/``config_runtime`` are flat arrays over all
    (user, config) pairs; ``user_offsets[u]:user_offsets[u+1]`` slices user
    ``u``'s configs in rank order (rank 0 = most used).  ``config_cdf``,
    built once with the population, holds each user's submission CDF over
    the same slice (see :func:`.distributions.choice_cdf`).

    Submission frequency per config is Zipf over ranks, optionally *damped
    by cost*: configs demanding many core-seconds are submitted less often
    (``cost_damping`` exponent), reflecting that users rerun their cheap
    jobs constantly but launch expensive runs sparingly.  The damping also
    bounds the load variance a single expensive config can inject.
    """

    n_users: int
    user_offsets: np.ndarray
    config_cores: np.ndarray
    config_runtime: np.ndarray
    #: per-user activity share (heavy users submit most jobs)
    activity: np.ndarray
    zipf_s: float
    #: exponent of the cost damping (0 = pure Zipf)
    cost_damping: float = 0.0
    #: core-seconds below which cost damping does not kick in
    cost_ref: float = 1.0
    config_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.config_cdf = self._config_cdf()

    @classmethod
    def build(
        cls,
        rng: np.random.Generator,
        n_users: int,
        configs_per_user_mean: float,
        size_dist: Distribution,
        size_rounding: int,
        max_cores: int,
        runtime_dist: Distribution,
        zipf_s: float,
        activity_zipf_s: float = 0.6,
        max_config_core_seconds: float | None = None,
        cost_damping: float = 0.0,
        cost_ref: float = 1.0,
    ) -> "UserPopulation":
        """Sample a population from system-level priors.

        ``max_config_core_seconds`` caps one run's core-seconds per config
        (full-machine configs get proportionally shorter runtimes) — the
        synthetic analogue of capability-job walltime limits; it also bounds
        the variance a single hot config can inject into the offered load.
        """
        n_configs = 1 + rng.poisson(max(0.0, configs_per_user_mean - 1), size=n_users)
        offsets = np.concatenate([[0], np.cumsum(n_configs)])
        total = int(offsets[-1])
        cores = size_dist.sample(rng, total)
        if size_rounding > 1:
            cores = np.maximum(
                size_rounding, np.round(cores / size_rounding) * size_rounding
            )
        cores = np.clip(np.maximum(cores, 1), 1, max_cores).astype(np.int64)
        if hasattr(runtime_dist, "sample_for"):
            runtime = np.maximum(runtime_dist.sample_for(rng, cores), 1.0)
        else:
            runtime = np.maximum(runtime_dist.sample(rng, total), 1.0)
        if max_config_core_seconds is not None:
            runtime = np.minimum(runtime, max_config_core_seconds / cores)
        activity = zipf_weights(n_users, activity_zipf_s)
        # shuffle so user ids are not sorted by activity
        rng.shuffle(activity)
        return cls(
            n_users=n_users,
            user_offsets=offsets,
            config_cores=cores,
            config_runtime=runtime,
            activity=activity,
            zipf_s=zipf_s,
            cost_damping=cost_damping,
            cost_ref=cost_ref,
        )

    def _config_cdf(self) -> np.ndarray:
        """Every user's submission CDF, flat over ``(user, config)`` pairs.

        A user's weights are Zipf over config ranks, times the cost damping
        when it is on, renormalized.  Users with the same number of configs
        share the Zipf row, so each distinct count is one matrix of users by
        ranks; the row sums and cumulative sums equal the one-user ones bit
        for bit.
        """
        counts = np.diff(self.user_offsets)
        cdf = np.empty(len(self.config_cores))
        if self.cost_damping > 0.0:
            cost = self.config_cores * self.config_runtime
            damp = (self.cost_ref / np.maximum(cost, self.cost_ref)) ** self.cost_damping
        for k in np.unique(counts).tolist():
            users = np.flatnonzero(counts == k)
            idx = self.user_offsets[users][:, None] + np.arange(k)
            w = np.broadcast_to(zipf_weights(k, self.zipf_s), idx.shape)
            if self.cost_damping > 0.0:
                w = w * damp[idx]
                w = w / w.sum(axis=1, keepdims=True)
            cdf[idx] = choice_cdf(w)
        return cdf


@dataclass
class ArrivalBatch:
    """Raw arrival stream before behavioural post-processing."""

    submit: np.ndarray
    user: np.ndarray
    config: np.ndarray

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.submit)

    def sorted_by_time(self) -> "ArrivalBatch":
        """Reorder jobs by submission time."""
        order = np.argsort(self.submit, kind="stable")
        return ArrivalBatch(
            submit=self.submit[order], user=self.user[order], config=self.config[order]
        )


def generate_arrivals(
    rng: np.random.Generator,
    population: UserPopulation,
    days: float,
    jobs_per_day: float,
    session_mean_jobs: float,
    gap_dist: Distribution,
    diurnal: DiurnalProfile,
    config_stickiness: float = 0.8,
    vacancy_fraction: float = 0.0,
    vacancy_keep: float = 1.0,
) -> ArrivalBatch:
    """Generate the full arrival stream for one synthetic trace.

    Parameters mirror the calibration tables; see module docstring for the
    model.  ``vacancy_fraction``/``vacancy_keep`` thin the initial portion of
    the window (the Philly trace famously starts with a long vacancy).
    """
    horizon = days * SECONDS_PER_DAY
    total_jobs = jobs_per_day * days
    offsets = population.user_offsets.tolist()
    # geometric session sizes with the requested mean (support >= 1)
    p = 1.0 / max(session_mean_jobs, 1.0)
    submits, users, configs = [], [], []
    for u in range(population.n_users):
        expect_jobs = total_jobs * population.activity[u]
        n_sessions = rng.poisson(expect_jobs / max(session_mean_jobs, 1.0))
        if n_sessions == 0:
            continue
        starts = diurnal.sample_times(rng, n_sessions, days)
        n_sessions = len(starts)
        if n_sessions == 0:
            continue
        sizes = rng.geometric(p, size=n_sessions)
        total = int(sizes.sum())
        gaps = np.maximum(gap_dist.sample(rng, total), 0.1)
        # per-session cumulative gaps -> absolute submit times
        session_of_job = np.repeat(np.arange(n_sessions), sizes)
        cum = np.cumsum(gaps)
        session_base = np.concatenate([[0], np.cumsum(sizes)])[:-1]
        # first job of a session arrives at the session start; each later job
        # trails the previous by its gap: within_i = cum[i] - cum[first(i)]
        within = cum - cum[session_base][session_of_job]
        t = starts[session_of_job] + within
        # session config with stickiness: each job re-draws with prob 1-sticky
        lo = offsets[u]
        cdf = population.config_cdf[lo : offsets[u + 1]]
        session_cfg = lo + sample_cdf(rng, cdf, n_sessions)
        job_cfg = session_cfg[session_of_job]
        rebels = rng.random(total) < (1.0 - config_stickiness)
        n_reb = int(rebels.sum())
        if n_reb:
            job_cfg[rebels] = lo + sample_cdf(rng, cdf, n_reb)
        keep = t < horizon
        submits.append(t[keep])
        users.append(np.full(int(keep.sum()), u, dtype=np.int64))
        configs.append(job_cfg[keep])

    if not submits:
        empty = np.array([], dtype=float)
        return ArrivalBatch(empty, empty.astype(np.int64), empty.astype(np.int64))

    submit = np.concatenate(submits)
    user = np.concatenate(users)
    config = np.concatenate(configs)

    if vacancy_fraction > 0 and vacancy_keep < 1.0:
        cutoff = horizon * vacancy_fraction
        early = submit < cutoff
        drop = early & (rng.random(len(submit)) > vacancy_keep)
        submit, user, config = submit[~drop], user[~drop], config[~drop]

    return ArrivalBatch(submit, user, config).sorted_by_time()
