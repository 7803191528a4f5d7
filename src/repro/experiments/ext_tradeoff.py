"""Extension: the accuracy / underestimation trade-off (Fan et al. [11]).

Reference [11] of the paper (Fan et al., CLUSTER'17) frames runtime
prediction as a trade-off: predicting higher quantiles sacrifices a little
accuracy to slash the underestimation rate.  Our Tobit model exposes
``predict_quantile``; this experiment sweeps the quantile and prints the
trade-off curve, with and without the elapsed-time feature — showing that
elapsed time shifts the whole curve, not just one point.
"""

from __future__ import annotations

import numpy as np

from ..ml import TobitRegressor, prediction_accuracy, underestimation_rate
from ..predict.features import build_dataset
from ..predict.harness import augment_with_checkpoints
from ..viz import percent, render_table
from .common import DEFAULT_DAYS, DEFAULT_SEED, ExperimentResult, get_traces

__all__ = ["run"]


def run(
    days: float = DEFAULT_DAYS,
    seed: int = DEFAULT_SEED,
    system: str = "theta",
    quantiles: tuple[float, ...] = (0.5, 0.75, 0.9, 0.95),
    elapsed_fraction: float = 0.25,
    max_jobs: int = 8000,
    train_fraction: float = 0.7,
) -> ExperimentResult:
    """Sweep Tobit prediction quantiles with/without elapsed time."""
    traces = get_traces(days, seed)
    data = build_dataset(traces[system])
    if data.n > max_jobs:
        data = data.subset(np.arange(data.n) < max_jobs)

    threshold = elapsed_fraction * float(data.runtime.mean())
    n_train = int(data.n * train_fraction)
    train = data.subset(np.arange(data.n) < n_train)
    test_all = data.subset(np.arange(data.n) >= n_train)
    test = test_all.subset(test_all.runtime > threshold)

    log_y = lambda d: np.log(np.maximum(d.runtime, 1.0))

    base_model = TobitRegressor().fit(train.X, log_y(train), censored=train.censored)
    X_aug, train_aug = augment_with_checkpoints(train, threshold)
    elapsed_model = TobitRegressor().fit(
        X_aug, log_y(train_aug), censored=train_aug.censored
    )
    X_test_elapsed = test.with_elapsed(threshold)

    result = ExperimentResult(
        exp_id="ext_tradeoff",
        title="Extension: accuracy vs underestimation trade-off (Tobit quantiles)",
    )
    rows = []
    data_out = {}
    arms = (
        ("baseline", base_model, test.X),
        ("elapsed", elapsed_model, X_test_elapsed),
    )
    for q in quantiles:
        cells = {}
        for arm, model, X in arms:
            pred = np.exp(model.predict_quantile(X, q))
            cells[arm] = {
                "under": underestimation_rate(test.runtime, pred),
                "acc": float(prediction_accuracy(test.runtime, pred).mean()),
            }
        rows.append(
            [
                f"q={q}",
                percent(cells["baseline"]["under"]),
                percent(cells["baseline"]["acc"]),
                percent(cells["elapsed"]["under"]),
                percent(cells["elapsed"]["acc"]),
            ]
        )
        data_out[str(q)] = cells
    result.add(
        render_table(
            [
                "quantile",
                "base under",
                "base acc",
                "elapsed under",
                "elapsed acc",
            ],
            rows,
            title=f"{system}: Tobit quantile sweep at elapsed fraction "
            f"{elapsed_fraction} (higher quantile -> fewer underestimates, "
            "lower accuracy; elapsed time shifts the whole frontier)",
        )
    )
    result.data = data_out
    return result
