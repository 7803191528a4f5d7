"""The Fig 12 experiment: runtime prediction with vs. without elapsed time.

Protocol (faithful to §VI-A's fair-comparison setup):

1. Pick an elapsed threshold ``T`` — the paper uses 1/8, 1/4 and 1/2 of the
   trace's mean runtime.
2. Both arms predict only for jobs still alive at ``T`` (runtime > T), so
   neither gets free wins on jobs that already finished.
3. The *baseline* arm trains on all historical jobs with the base features.
4. The *elapsed* arm trains on survival-augmented rows: every training job
   contributes one row per elapsed checkpoint it survived (elapsed = 0,
   T/2, T, 2T ...), with the elapsed value as an extra feature.  The model
   thereby learns the conditional "given the job is still running at t"
   structure that Fig 11 shows is strongly user-specific.
5. Metrics: underestimation rate (smaller = better) and mean prediction
   accuracy ``min/max`` (larger = better).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ml import prediction_accuracy, underestimation_rate
from ..traces.schema import Trace
from .features import PredictionDataset, build_dataset
from .models import MODEL_NAMES, RuntimePredictor, make_predictor

__all__ = [
    "ArmResult",
    "ModelTiming",
    "ElapsedComparison",
    "run_use_case1",
    "augment_with_checkpoints",
]


@dataclass(frozen=True)
class ArmResult:
    """Metrics of one (model, threshold, arm) cell of Fig 12."""

    model: str
    elapsed_fraction: float
    arm: str  # "baseline" | "elapsed"
    underestimate_rate: float
    avg_accuracy: float
    n_test: int


@dataclass(frozen=True)
class ModelTiming:
    """Wall-clock cost of one fit and the predictions made with it.

    An elapsed-arm row covers one (model, threshold) cell.  The baseline
    arm fits each model once for every threshold, so its row has
    ``elapsed_fraction=None`` and sums the predictions over all cells.
    """

    model: str
    elapsed_fraction: float | None
    arm: str  # "baseline" | "elapsed"
    fit_seconds: float
    predict_seconds: float
    n_train: int
    n_test: int


@dataclass
class ElapsedComparison:
    """All Fig 12 cells for one trace."""

    system: str
    mean_runtime: float
    results: list[ArmResult]
    timings: list[ModelTiming] = field(default_factory=list)

    def cell(self, model: str, fraction: float, arm: str) -> ArmResult:
        """Look up one result cell."""
        for r in self.results:
            if (
                r.model == model
                and abs(r.elapsed_fraction - fraction) < 1e-9
                and r.arm == arm
            ):
                return r
        raise KeyError((model, fraction, arm))


def augment_with_checkpoints(
    train: PredictionDataset, threshold: float
) -> tuple[np.ndarray, PredictionDataset]:
    """Survival-augmented design matrix for the elapsed arm.

    Each training job yields one row per checkpoint it survived, checkpoints
    being ``{0, T/2, T, 2T, 4T}``.  Returns ``(X_aug, data_aug)`` with rows
    aligned.
    """
    checkpoints = np.array(
        [0.0, threshold / 2.0, threshold, 2.0 * threshold, 4.0 * threshold]
    )
    rows: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    elapsed_vals: list[np.ndarray] = []
    for cp in checkpoints:
        alive = train.runtime > cp
        if not alive.any():
            continue
        masks.append(alive)
        sub = train.X[alive]
        rows.append(sub)
        elapsed_vals.append(np.full(int(alive.sum()), cp))
    X = np.vstack(rows)
    elapsed = np.concatenate(elapsed_vals)
    X_aug = np.hstack([X, np.log1p(elapsed)[:, None]])
    total_mask = np.concatenate(masks)
    data_aug = PredictionDataset(
        X=X,
        runtime=np.concatenate([train.runtime[m] for m in masks]),
        last2=np.concatenate([train.last2[m] for m in masks]),
        censored=np.concatenate([train.censored[m] for m in masks]),
        user=np.concatenate([train.user[m] for m in masks]),
    )
    del total_mask
    return X_aug, data_aug


def run_use_case1(
    trace: Trace,
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5),
    models: tuple[str, ...] = MODEL_NAMES,
    train_fraction: float = 0.7,
    max_jobs: int | None = 20_000,
) -> ElapsedComparison:
    """Run the full Fig 12 comparison on one trace."""
    data = build_dataset(trace)
    if max_jobs is not None and data.n > max_jobs:
        # keep the chronological prefix (cheapest unbiased cut)
        data = data.subset(np.arange(data.n) < max_jobs)
    if data.n < 50:
        raise ValueError("trace too small for the prediction experiment")

    mean_rt = float(data.runtime.mean())
    n_train = int(data.n * train_fraction)
    train = data.subset(np.arange(data.n) < n_train)
    test_all = data.subset(np.arange(data.n) >= n_train)

    cells = []
    for frac in fractions:
        threshold = frac * mean_rt
        test = test_all.subset(test_all.runtime > threshold)
        if test.n:
            cells.append((frac, threshold, test))

    # ---- baseline arm: base features, trained on all history -------------
    # neither the training set nor the (seeded) model depends on the
    # threshold, so each model is fitted once and predicts every cell
    baselines: dict[str, RuntimePredictor] = {}
    base_fit_s: dict[str, float] = {}
    base_predict_s = dict.fromkeys(models, 0.0)
    if cells:
        for model_name in models:
            predictor = make_predictor(model_name)
            t0 = time.perf_counter()
            predictor.fit(train, train.X)
            base_fit_s[model_name] = time.perf_counter() - t0
            baselines[model_name] = predictor

    results: list[ArmResult] = []
    timings: list[ModelTiming] = []
    for frac, threshold, test in cells:
        for model_name in models:
            t0 = time.perf_counter()
            pred_base = baselines[model_name].predict(test, test.X)
            base_predict_s[model_name] += time.perf_counter() - t0

            # ---- elapsed arm: survival-augmented training ------------------
            predictor_e = make_predictor(model_name)
            X_aug, train_aug = augment_with_checkpoints(train, threshold)
            t0 = time.perf_counter()
            predictor_e.fit(train_aug, X_aug)
            t1 = time.perf_counter()
            pred_elapsed = predictor_e.predict(test, test.with_elapsed(threshold))
            t2 = time.perf_counter()
            timings.append(
                ModelTiming(
                    model=model_name,
                    elapsed_fraction=frac,
                    arm="elapsed",
                    fit_seconds=t1 - t0,
                    predict_seconds=t2 - t1,
                    n_train=train_aug.n,
                    n_test=test.n,
                )
            )

            for arm, pred in (("baseline", pred_base), ("elapsed", pred_elapsed)):
                results.append(
                    ArmResult(
                        model=model_name,
                        elapsed_fraction=frac,
                        arm=arm,
                        underestimate_rate=underestimation_rate(
                            test.runtime, pred
                        ),
                        avg_accuracy=float(
                            prediction_accuracy(test.runtime, pred).mean()
                        ),
                        n_test=test.n,
                    )
                )
    timings += [
        ModelTiming(
            model=model_name,
            elapsed_fraction=None,
            arm="baseline",
            fit_seconds=base_fit_s[model_name],
            predict_seconds=base_predict_s[model_name],
            n_train=train.n,
            n_test=sum(test.n for _, _, test in cells),
        )
        for model_name in baselines
    ]
    return ElapsedComparison(
        system=trace.system.name,
        mean_runtime=mean_rt,
        results=results,
        timings=timings,
    )
