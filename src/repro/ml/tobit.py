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


class TobitRegressor:
    """Linear model with right-censored observations, fitted by MLE."""

    def __init__(self, max_iter: int = 200, callback=None) -> None:
        self.max_iter = max_iter
        # telemetry only: called as callback(iteration, neg_log_likelihood)
        # once per L-BFGS iteration via scipy's callback, which observes the
        # iterates without perturbing the optimization path
        self.callback = callback
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
        from scipy.special import log_ndtr

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

        A = np.hstack([X, np.ones((n, 1))])
        unc = ~censored
        any_unc, any_censored = bool(unc.any()), bool(censored.any())
        y_unc, y_censored = y[unc], y[censored]

        def neg_ll(params: np.ndarray) -> float:
            w = params[:-1]
            log_s = np.clip(params[-1], -20.0, 20.0)
            s = np.exp(log_s)
            mu = A @ w
            ll = 0.0
            if any_unc:
                z = (y_unc - mu[unc]) / s
                ll += float(np.sum((-(z**2) / 2.0 - _LOG_SQRT_2PI) - log_s))
            if any_censored:
                z = (mu[censored] - y_censored) / s
                ll += float(np.sum(log_ndtr(z)))
            return -ll

        trace = None
        if self.callback is not None:
            counter = iter(range(self.max_iter + 1))

            def trace(xk: np.ndarray) -> None:
                self.callback(next(counter), neg_ll(xk))

        result = minimize(
            neg_ll,
            w0,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
            callback=trace,
        )
        params = result.x
        self.coef_ = params[:-2]
        self.intercept_ = float(params[-2])
        self.sigma_ = float(np.exp(np.clip(params[-1], -20.0, 20.0)))
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
