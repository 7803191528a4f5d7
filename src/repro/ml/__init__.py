"""From-scratch ML substrate: linear, trees, boosting, MLP, Tobit."""

from .base import Regressor, check_X, check_Xy
from .boosting import GradientBoostingRegressor
from .linear import LinearRegression, Ridge
from .metrics import (
    mae,
    mse,
    prediction_accuracy,
    r2_score,
    underestimation_rate,
)
from .mlp import MLPRegressor
from .neighbors import KNeighborsRegressor
from .preprocess import StandardScaler, train_test_split
from .quantile import QuantileGradientBoosting, pinball_loss
from .tobit import TobitRegressor
from .tree import DecisionTreeRegressor

__all__ = [
    "Regressor",
    "check_X",
    "check_Xy",
    "LinearRegression",
    "Ridge",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "MLPRegressor",
    "KNeighborsRegressor",
    "QuantileGradientBoosting",
    "pinball_loss",
    "TobitRegressor",
    "StandardScaler",
    "train_test_split",
    "mse",
    "mae",
    "r2_score",
    "prediction_accuracy",
    "underestimation_rate",
]
