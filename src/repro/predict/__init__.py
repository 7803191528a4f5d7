"""Use case 1: elapsed-time-aware job runtime prediction (paper §VI-A)."""

from .features import FEATURE_NAMES, PredictionDataset, build_dataset
from .harness import (
    ArmResult,
    ElapsedComparison,
    ModelTiming,
    augment_with_checkpoints,
    compare_elapsed,
    run_use_case1,
)
from .models import EXTRA_MODEL_NAMES, MODEL_NAMES, RuntimePredictor, make_predictor

__all__ = [
    "build_dataset",
    "PredictionDataset",
    "FEATURE_NAMES",
    "make_predictor",
    "RuntimePredictor",
    "MODEL_NAMES",
    "EXTRA_MODEL_NAMES",
    "run_use_case1",
    "compare_elapsed",
    "ElapsedComparison",
    "ArmResult",
    "ModelTiming",
    "augment_with_checkpoints",
]
