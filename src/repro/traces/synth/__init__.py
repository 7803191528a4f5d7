"""Calibrated synthetic workload generators for the five target systems."""

from .behavior import QueueFeedback, StatusModel, WaitModel, queue_length_at_submit
from .calibration import CALIBRATIONS, SystemCalibration, get_calibration
from .distributions import (
    ClippedDist,
    ConstantDist,
    DiscreteDist,
    Distribution,
    LogNormalDist,
    MixtureDist,
)
from .diurnal import (
    DiurnalProfile,
    afternoon_profile,
    dipped_profile,
    flat_profile,
    peaked_profile,
)
from .fit import LogNormalMixtureFit, fit_calibration, fit_lognormal_mixture
from .generator import cached_traces, generate_all_traces, generate_trace
from .users import ArrivalBatch, UserPopulation, generate_arrivals, zipf_weights

__all__ = [
    "generate_trace",
    "generate_all_traces",
    "cached_traces",
    "fit_calibration",
    "fit_lognormal_mixture",
    "LogNormalMixtureFit",
    "SystemCalibration",
    "get_calibration",
    "CALIBRATIONS",
    "StatusModel",
    "WaitModel",
    "QueueFeedback",
    "queue_length_at_submit",
    "UserPopulation",
    "ArrivalBatch",
    "generate_arrivals",
    "zipf_weights",
    "Distribution",
    "LogNormalDist",
    "ConstantDist",
    "MixtureDist",
    "DiscreteDist",
    "ClippedDist",
    "DiurnalProfile",
    "flat_profile",
    "peaked_profile",
    "dipped_profile",
    "afternoon_profile",
]
