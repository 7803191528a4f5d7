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

Every model fit is one cell on the runner's supervised worker pool
(:func:`repro.runner.watchdog.run_watchdog`): the baseline arm fits each
model once and predicts every threshold's test set, the elapsed arm fits
once per (model, threshold).  A cell returns only its predictions and
timings; the parent computes the metrics, so results are bit-identical at
any worker count (docs/PARALLELISM.md, "Fig 12's fits on the pool").
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ml import prediction_accuracy, underestimation_rate
from ..runner.options import RunOptions
from ..runner.watchdog import FailureReport, SweepError, run_watchdog
from ..traces.schema import Trace
from .features import PredictionDataset, build_dataset
from .models import MODEL_NAMES, make_predictor

__all__ = [
    "ArmResult",
    "ModelTiming",
    "ElapsedComparison",
    "compare_elapsed",
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


def _checkpoints(threshold: float) -> np.ndarray:
    return np.array(
        [0.0, threshold / 2.0, threshold, 2.0 * threshold, 4.0 * threshold]
    )


def augment_with_checkpoints(
    train: PredictionDataset, threshold: float
) -> tuple[np.ndarray, PredictionDataset]:
    """Survival-augmented design matrix for the elapsed arm.

    Each training job yields one row per checkpoint it survived, checkpoints
    being ``{0, T/2, T, 2T, 4T}``.  Returns ``(X_aug, data_aug)`` with rows
    aligned.
    """
    rows: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    elapsed_vals: list[np.ndarray] = []
    for cp in _checkpoints(threshold):
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
    data_aug = PredictionDataset(
        X=X,
        runtime=np.concatenate([train.runtime[m] for m in masks]),
        last2=np.concatenate([train.last2[m] for m in masks]),
        censored=np.concatenate([train.censored[m] for m in masks]),
        user=np.concatenate([train.user[m] for m in masks]),
    )
    return X_aug, data_aug


@dataclass(frozen=True)
class _Split:
    """One trace's training set and its per-threshold test sets."""

    system: str
    mean_runtime: float
    train: PredictionDataset
    #: ``(fraction, threshold, test)``, thresholds with a nonempty test set
    tests: list[tuple[float, float, PredictionDataset]]


@dataclass(frozen=True)
class _FitCell:
    """One model fit: a pool cell.  ``test`` is ``None`` for the baseline
    arm, else the index of the elapsed arm's threshold in ``_Split.tests``."""

    #: names the cell, and is the fingerprint its result must carry
    label: str
    split: int
    model: str
    test: int | None
    #: training rows: the pool sends the largest cells out first
    rows: int


@dataclass(frozen=True)
class _FitResult:
    """What a cell sends back: predictions (one array per test set it
    predicts) and timings, never the fitted predictor."""

    fingerprint: str
    predictions: list[np.ndarray]
    fit_seconds: float
    predict_seconds: float
    n_train: int
    #: span tree of a traced cell (``RunOptions.perf``), else ``None``
    perf: dict | None = None


def _split(
    trace: Trace, fractions: tuple[float, ...], train_fraction: float,
    max_jobs: int | None,
) -> _Split:
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
    tests = []
    for frac in fractions:
        threshold = frac * mean_rt
        test = test_all.subset(test_all.runtime > threshold)
        if test.n:
            tests.append((frac, threshold, test))
    return _Split(trace.system.name, mean_rt, train, tests)


def _cells(index: int, split: _Split, models: tuple[str, ...]) -> list[_FitCell]:
    """The baseline fit of each model (its training set and seeded model do
    not depend on the threshold), then one elapsed fit per threshold."""
    if not split.tests:
        return []
    runtime = split.train.runtime
    cells = []
    for model in models:
        cells.append(_FitCell(
            f"{split.system}/{model}/baseline", index, model, None,
            split.train.n,
        ))
        for t, (frac, threshold, _) in enumerate(split.tests):
            rows = sum(int(np.count_nonzero(runtime > cp))
                       for cp in _checkpoints(threshold))
            cells.append(_FitCell(
                f"{split.system}/{model}/elapsed@{frac}", index, model, t, rows,
            ))
    return cells


def _untraced(name: str, **tags):
    return nullcontext()


def _fit(split: _Split, cell: _FitCell, span=_untraced) -> _FitResult:
    """Fit and predict one cell; ``span`` is a profiler's ``span`` method."""
    predictor = make_predictor(cell.model)
    if cell.test is None:
        data, X = split.train, split.train.X
    else:
        _, threshold, test = split.tests[cell.test]
        with span("augment"):
            X, data = augment_with_checkpoints(split.train, threshold)
    t0 = time.perf_counter()
    with span("fit", model=cell.model, rows=data.n):
        predictor.fit(data, X)
    t1 = time.perf_counter()
    with span("predict", model=cell.model):
        if cell.test is None:
            predictions = [
                predictor.predict(test, test.X) for _, _, test in split.tests
            ]
        else:
            predictions = [predictor.predict(test, test.with_elapsed(threshold))]
    t2 = time.perf_counter()
    return _FitResult(cell.label, predictions, t1 - t0, t2 - t1, data.n)


def _fit_cell(splits: list[_Split], cell: _FitCell, perf=None) -> _FitResult:
    """Run one cell (in a pool worker).  Under a
    :class:`repro.obs.perf.PerfConfig` its augment, fit and predict spans
    ride back on ``_FitResult.perf``."""
    split = splits[cell.split]
    if perf is None:
        return _fit(split, cell)

    from ..obs.perf import run_traced

    return run_traced(
        perf, lambda prof, _: _fit(split, cell, prof.span), cell.label
    )


def _run_cells(
    splits: list[_Split], cells: list[_FitCell], options: RunOptions
) -> dict[tuple[int, str, int | None], _FitResult]:
    """Every cell on one pool, largest first; results keyed by
    ``(split, model, test)``.  A cell that fails terminally is missing
    under ``on_error="skip"`` and raises :class:`SweepError` under
    ``"raise"``.  Under ``options.perf`` each cell's spans, and each retry
    and failure, are added to the config's
    :class:`~repro.obs.perf.SweepTrace`, whose outputs are rewritten when
    the pool ends (as :func:`repro.runner.run_sweep` does)."""
    if not cells:
        return {}
    if any(cell.model == "tobit" for cell in cells):
        # Tobit's fit imports these on first use: importing them before the
        # pool forks saves every worker about 0.4 s of CPU
        import scipy.optimize  # noqa: F401
        import scipy.special  # noqa: F401
    perf, trace = options.perf, None
    execute = functools.partial(_fit_cell, splits)
    if perf is not None:
        from ..obs.perf import SweepTrace

        if perf.trace is None:
            perf.trace = SweepTrace()
        trace = perf.trace
        execute = functools.partial(execute, perf=perf.worker_config())
    order = sorted(range(len(cells)), key=lambda i: -cells[i].rows)
    fits: dict[tuple[int, str, int | None], _FitResult] = {}
    report = FailureReport()
    gen = run_watchdog(
        [(i, cells[i], cells[i].label) for i in order],
        execute,
        jobs=min(options.jobs, len(cells)),
        timeout=options.timeout,
        retry=options.retry,
        chaos=options.chaos,
    )
    try:
        for kind, i, res, *_ in gen:
            cell = cells[i]
            if kind == "done":
                fits[cell.split, cell.model, cell.test] = res
                if trace is not None and res.perf is not None:
                    trace.add_cell(cell.label, res.perf)
                continue
            # res is the attempt's TaskFailure
            if trace is not None:
                trace.add_event(
                    "retry" if kind == "retry" else "failed", cell.label,
                    failure_kind=res.kind, attempt=res.attempt,
                )
                if res.perf is not None:
                    trace.add_cell(cell.label, res.perf, failed=True)
            if kind == "retry":
                report.retries.append(res)
                continue
            report.failures.append(res)
            if options.on_error == "raise":
                raise SweepError(
                    report, [fits.get((c.split, c.model, c.test)) for c in cells]
                )
    finally:
        gen.close()
        if trace is not None:
            trace.flush(perf)
    return fits


def _comparison(
    index: int, split: _Split, models: tuple[str, ...], fits: dict
) -> ElapsedComparison:
    """One trace's results and timings, in the order of the loop over
    thresholds, then models, then arms."""
    results: list[ArmResult] = []
    timings: list[ModelTiming] = []
    for t, (frac, _, test) in enumerate(split.tests):
        for model in models:
            base = fits.get((index, model, None))
            elapsed = fits.get((index, model, t))
            if elapsed is not None:
                timings.append(ModelTiming(
                    model=model,
                    elapsed_fraction=frac,
                    arm="elapsed",
                    fit_seconds=elapsed.fit_seconds,
                    predict_seconds=elapsed.predict_seconds,
                    n_train=elapsed.n_train,
                    n_test=test.n,
                ))
            for arm, fit, k in (("baseline", base, t), ("elapsed", elapsed, 0)):
                if fit is None:
                    continue
                pred = fit.predictions[k]
                results.append(ArmResult(
                    model=model,
                    elapsed_fraction=frac,
                    arm=arm,
                    underestimate_rate=underestimation_rate(test.runtime, pred),
                    avg_accuracy=float(
                        prediction_accuracy(test.runtime, pred).mean()
                    ),
                    n_test=test.n,
                ))
    n_test = sum(test.n for _, _, test in split.tests)
    for model in models:
        base = fits.get((index, model, None))
        if base is not None:
            timings.append(ModelTiming(
                model=model,
                elapsed_fraction=None,
                arm="baseline",
                fit_seconds=base.fit_seconds,
                predict_seconds=base.predict_seconds,
                n_train=base.n_train,
                n_test=n_test,
            ))
    return ElapsedComparison(
        system=split.system,
        mean_runtime=split.mean_runtime,
        results=results,
        timings=timings,
    )


def compare_elapsed(
    traces: Sequence[Trace],
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5),
    models: tuple[str, ...] = MODEL_NAMES,
    train_fraction: float = 0.7,
    max_jobs: int | None = 20_000,
    jobs: int | None = None,
    options: RunOptions | None = None,
) -> list[ElapsedComparison]:
    """Run the Fig 12 comparison on each trace, all fits on one pool.

    ``options`` (a :class:`repro.runner.RunOptions`; ``jobs`` overrides
    its field) sets the pool's ``jobs``, ``timeout``, ``on_error``,
    ``retry``, ``chaos`` and ``perf`` (each fit a traced cell); its
    ``cache`` and ``journal`` do not apply: fits are neither cached nor
    journaled.  Under ``on_error="skip"`` a fit that failed leaves its rows out
    of ``results`` and ``timings``.
    """
    options = RunOptions.resolve(options, jobs=jobs)
    splits = [_split(t, fractions, train_fraction, max_jobs) for t in traces]
    cells = [c for i, split in enumerate(splits) for c in _cells(i, split, models)]
    fits = _run_cells(splits, cells, options)
    return [_comparison(i, split, models, fits) for i, split in enumerate(splits)]


def run_use_case1(
    trace: Trace,
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5),
    models: tuple[str, ...] = MODEL_NAMES,
    train_fraction: float = 0.7,
    max_jobs: int | None = 20_000,
    jobs: int | None = None,
    options: RunOptions | None = None,
) -> ElapsedComparison:
    """Run the full Fig 12 comparison on one trace (:func:`compare_elapsed`)."""
    (comparison,) = compare_elapsed(
        [trace], fractions, models, train_fraction, max_jobs, jobs, options
    )
    return comparison
