"""Tobit (censored) regression.

The Tobit model (used for job-runtime estimation by Fan et al., CLUSTER'17 —
reference [11] of the paper) treats some observations as *right-censored*:
a job killed at its walltime reveals only a lower bound on its true runtime.
Maximum-likelihood fit via L-BFGS on the standard Tobit log-likelihood:

    uncensored:  log phi((y - Xw)/s) - log s
    censored:    log Phi((Xw - c)/s)

The two log-densities are evaluated with the kernels that
``scipy.stats.norm.logpdf`` and ``norm.logcdf`` reduce to at ``loc=0``,
``scale=1`` -- ``-z**2 / 2 - log(sqrt(2 pi))`` and
``scipy.special.log_ndtr`` -- so the likelihood is bit-identical to the
``norm`` calls without their per-call argument handling.  Likewise
``predict_quantile`` uses ``scipy.special.ndtri``, which is what
``norm.ppf`` reduces to at ``loc=0``, ``scale=1``.

The optimizer gets its gradient from :class:`_NegLogLikelihood`, which
returns the likelihood together with the forward difference L-BFGS-B
would otherwise take through scipy's finite-difference machinery, bit
for bit: absolute step ``1e-8`` (scipy's relative fallback step where
``x + 1e-8 == x``), divided by ``(x + h) - x``.  Each stepped point
recomputes ``mu = A @ w`` with the same matrix-vector product as the
unstepped one; the log-sigma step leaves ``w`` alone and reuses ``mu``.
The boolean masks then pick the censored and uncensored rows out of the
whole product: multiplying only a row subset, ``A[unc] @ w``, rounds
differently in BLAS and moves Fig 12's fits (docs/PERFORMANCE.md, "Fig
12's models").

scipy is imported inside ``fit`` and ``predict_quantile``, not at module
level: ``import repro`` reaches this module through ``repro.sched`` and
``repro.predict``, and most of the package (the characterization, the
schedulers) never fits a Tobit model, so only a process that does pays
for loading scipy.
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_Xy
from .linear import LinearRegression

__all__ = ["TobitRegressor"]

#: log of the standard normal density's normalizer, as scipy computes it
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))

#: L-BFGS-B's default absolute finite-difference step (its ``eps``)
_STEP = 1e-8

#: scipy's fallback relative step for 2-point differences in float64
_FALLBACK_STEP = np.finfo(np.float64).eps ** 0.5


def _clip_log_sigma(log_s: float) -> float:
    """``np.clip(log_s, -20, 20)`` for a scalar (NaN passes through)."""
    return min(max(log_s, -20.0), 20.0)


class _NegLogLikelihood:
    """Negative Tobit log-likelihood over ``params = (w, log sigma)`` of the
    design matrix ``A`` (features plus a ones column).

    Calling it returns the value and its 2-point forward-difference
    gradient, exactly as ``scipy.optimize.approx_fprime(params, f, 1e-8)``
    computes it for the likelihood ``f`` evaluated one point at a time.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray, censored: np.ndarray) -> None:
        from scipy.special import log_ndtr

        self._log_ndtr = log_ndtr
        self.A = A
        self.unc = ~censored
        self.censored = censored
        self.any_unc = bool(self.unc.any())
        self.any_censored = bool(censored.any())
        self.y_unc = y[self.unc]
        self.y_censored = y[censored]

    def _values(self, mu: np.ndarray, log_s: list[float]) -> np.ndarray:
        """The likelihood at each row of ``mu`` (``A @ w`` for one ``w``
        per row) and the matching unclipped log sigma.

        Row by row this is the arithmetic of one likelihood evaluation:
        the operations are elementwise, and a row sum of a C-contiguous
        matrix is the pairwise sum of that row alone.  ``compress`` keeps
        the masked columns C-contiguous (``mu[:, mask]`` would lay them
        out column-major, and the row sums would then add in another
        order).
        """
        log_s = np.array([_clip_log_sigma(v) for v in log_s])[:, None]
        s = np.array([np.exp(v) for v in log_s[:, 0]])[:, None]
        ll = np.zeros(len(mu))
        if self.any_unc:
            z = (self.y_unc - mu.compress(self.unc, axis=1)) / s
            ll += ((-(z**2) / 2.0 - _LOG_SQRT_2PI) - log_s).sum(axis=1)
        if self.any_censored:
            z = (mu.compress(self.censored, axis=1) - self.y_censored) / s
            ll += self._log_ndtr(z).sum(axis=1)
        return -ll

    def __call__(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        h = np.full(len(params), _STEP)
        # where the step is lost in x's rounding, scipy steps relative to x
        lost = (params + h) - params == 0
        if lost.any():
            sign = (params >= 0).astype(float) * 2 - 1
            relative = _FALLBACK_STEP * sign * np.maximum(1.0, np.abs(params))
            h = np.where(lost, relative, h)
        stepped = params + h
        # row 0 is params; row i + 1 steps coordinate i
        mu = np.empty((len(params) + 1, len(self.A)))
        w = params[:-1].copy()
        mu[0] = self.A @ w
        for i in range(len(w)):
            w[i] = stepped[i]
            mu[i + 1] = self.A @ w
            w[i] = params[i]
        # stepping log sigma leaves w, and so mu, as it is
        mu[-1] = mu[0]
        log_s = [params[-1]] * len(params) + [stepped[-1]]
        f = self._values(mu, log_s)
        return float(f[0]), (f[1:] - f[0]) / (stepped - params)


class TobitRegressor:
    """Linear model with right-censored observations, fitted by MLE."""

    def __init__(self, max_iter: int = 200) -> None:
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.sigma_: float = 1.0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        censored: np.ndarray | None = None,
    ) -> "TobitRegressor":
        """Fit by maximum likelihood.

        ``censored`` marks right-censored rows (observed value is a lower
        bound).  With no censoring the model reduces to OLS with a Gaussian
        noise estimate; OLS is also the optimizer's warm start.
        """
        from scipy.optimize import minimize

        X, y = check_Xy(X, y)
        n, d = X.shape
        if censored is None:
            censored = np.zeros(n, dtype=bool)
        censored = np.asarray(censored, dtype=bool)
        if len(censored) != n:
            raise ValueError("censored mask length mismatch")

        ols = LinearRegression().fit(X, y)
        resid = y - ols.predict(X)
        sigma0 = max(float(resid.std()), 1e-6)
        w0 = np.concatenate([ols.coef_, [ols.intercept_, np.log(sigma0)]])

        neg_ll = _NegLogLikelihood(np.hstack([X, np.ones((n, 1))]), y, censored)
        result = minimize(
            neg_ll,
            w0,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": self.max_iter},
        )
        params = result.x
        self.coef_ = params[:-2]
        self.intercept_ = float(params[-2])
        self.sigma_ = float(np.exp(_clip_log_sigma(params[-1])))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Latent-mean prediction ``Xw + b``."""
        if self.coef_ is None:
            raise RuntimeError("model not fitted")
        X = check_X(X, len(self.coef_))
        return X @ self.coef_ + self.intercept_

    def predict_quantile(self, X: np.ndarray, q: float = 0.75) -> np.ndarray:
        """Upper-quantile prediction — the Fan et al. trick for trading a
        little accuracy for a much lower underestimation rate."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        from scipy.special import ndtri

        return self.predict(X) + self.sigma_ * ndtri(q)
