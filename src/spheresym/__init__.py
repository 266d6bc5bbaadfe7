"""Kernel test for spherical symmetry with swap-resampling calibration."""

from .augment import augment, center, sample_unit_sphere, spatial_median
from .calibrate import (
    SwapMask,
    TestOutcome,
    critical_value,
    exact_pvalue,
    mc_pvalue,
    resample_statistic,
    run_test,
)
from .core import (
    AugmentedSample,
    GramCache,
    Sample,
    ZetaEstimate,
    build_gram,
    kernel,
    swap_statistic,
    symmetrized_kernel,
    zeta_hat,
)
from .oracle import CovSpec, HaarConfig, gaussian_pair_term, gaussian_zeta, mc_zeta, sample_haar_orthogonal
from .rng import RngStream

__all__ = [
    "AugmentedSample",
    "CovSpec",
    "GramCache",
    "HaarConfig",
    "RngStream",
    "Sample",
    "SwapMask",
    "TestOutcome",
    "ZetaEstimate",
    "augment",
    "build_gram",
    "center",
    "critical_value",
    "exact_pvalue",
    "gaussian_pair_term",
    "gaussian_zeta",
    "kernel",
    "mc_pvalue",
    "mc_zeta",
    "resample_statistic",
    "run_test",
    "sample_haar_orthogonal",
    "sample_unit_sphere",
    "spatial_median",
    "swap_statistic",
    "symmetrized_kernel",
    "zeta_hat",
]
