"""Kernel test for spherical symmetry with swap-resampling calibration."""

from .augment import augment, center, spatial_median
from .calibrate import (
    TestOutcome,
    critical_value,
    exact_pvalue,
    mc_pvalue,
    run_test,
)
from .core import (
    AugmentedSample,
    GramCache,
    Sample,
    ZetaEstimate,
    build_gram,
    swap_statistic,
    zeta_hat,
)
from .oracle import CovSpec, HaarConfig, gaussian_pair_term, gaussian_zeta, mc_zeta
from .rng import RngStream

__all__ = [
    "AugmentedSample",
    "CovSpec",
    "GramCache",
    "HaarConfig",
    "RngStream",
    "Sample",
    "TestOutcome",
    "ZetaEstimate",
    "augment",
    "build_gram",
    "center",
    "critical_value",
    "exact_pvalue",
    "gaussian_pair_term",
    "gaussian_zeta",
    "mc_pvalue",
    "mc_zeta",
    "run_test",
    "spatial_median",
    "swap_statistic",
    "zeta_hat",
]
