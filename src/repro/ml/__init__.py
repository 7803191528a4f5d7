"""From-scratch ML substrate: linear, trees, boosting, MLP, Tobit."""

from .base import check_X, check_Xy
from .boosting import GradientBoostingRegressor
from .linear import LinearRegression
from .metrics import prediction_accuracy, underestimation_rate
from .mlp import MLPRegressor
from .neighbors import KNeighborsRegressor
from .preprocess import StandardScaler
from .quantile import QuantileGradientBoosting
from .tobit import TobitRegressor
from .tree import DecisionTreeRegressor

__all__ = [
    "check_X",
    "check_Xy",
    "LinearRegression",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "MLPRegressor",
    "KNeighborsRegressor",
    "QuantileGradientBoosting",
    "TobitRegressor",
    "StandardScaler",
    "prediction_accuracy",
    "underestimation_rate",
]
