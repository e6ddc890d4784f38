"""PECJ core: delay profile, estimator backends, compensation, operator."""

from repro.core.compensation import CompensatedEstimate, compensate, product_interval
from repro.core.delay_profile import DelayProfile
from repro.core.estimators import AEMAEstimator, PosteriorEstimator, SVIEstimator
from repro.core.pecj import PECJoin, make_estimator
from repro.core.persistence import checkpoint_pecj, restore_pecj

__all__ = [
    "PECJoin",
    "checkpoint_pecj",
    "restore_pecj",
    "make_estimator",
    "DelayProfile",
    "PosteriorEstimator",
    "AEMAEstimator",
    "SVIEstimator",
    "CompensatedEstimate",
    "compensate",
    "product_interval",
]
