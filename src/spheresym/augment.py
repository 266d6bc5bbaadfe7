"""Data augmentation: sphere sampling, paired variants, optional centering.

Each observation X_i is paired with X'_i = ||X_i|| U_i, where the U_i are
independent uniform draws from the unit sphere.  Centering (for an unknown
center of symmetry) subtracts the spatial median; it is off by default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import AugmentedSample, Sample
from .rng import RngStream

CENTER_MODES = ("none", "spatial-median")

# A Gaussian draw with norm below this is redrawn; the event has negligible
# probability but must not produce NaN after normalization.
_MIN_NORM = 1e-300


def _unit_rows(n: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """n independent uniform sphere points, one per row."""
    z = gen.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1)
    bad = norms <= _MIN_NORM
    while bad.any():
        z[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(z, axis=1)
        bad = norms <= _MIN_NORM
    return z / norms[:, None]


def augment(sample: Sample, rng: RngStream) -> AugmentedSample:
    """Pair every row with a uniformly re-oriented copy of the same norm."""
    gen = rng.generator()
    u = _unit_rows(sample.n, sample.d, gen)
    with np.errstate(over="ignore"):  # AugmentedSample refuses an overflowed norm
        norms = np.linalg.norm(sample.data, axis=1)
    variant = norms[:, None] * u
    return AugmentedSample(original=sample, variant=variant)


@dataclass(frozen=True)
class SpatialMedianResult:
    point: np.ndarray
    converged: bool
    n_iter: int
    objective: float  # sum_i ||X_i - point||


def spatial_median(sample: Sample, tol: float = 1e-8, max_iter: int = 10_000) -> SpatialMedianResult:
    """Minimize sum_i ||X_i - theta|| by Weiszfeld iteration.

    Uses the Vardi-Zhang modified step when the iterate lands on a data
    point, so the iteration never divides by zero.  Stops when the (sub)
    gradient norm falls below ``tol``; otherwise returns the best iterate
    after ``max_iter`` steps with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = sample.data
    n = x.shape[0]
    if n == 1:
        return SpatialMedianResult(x[0].copy(), True, 0, 0.0)

    theta = x.mean(axis=0)
    anchor_eps = 1e-12 * max(1.0, float(np.abs(x).max()))
    diff = x - theta
    dist = np.linalg.norm(diff, axis=1)
    for it in range(1, max_iter + 1):
        at_anchor = dist < anchor_eps
        eta = int(at_anchor.sum())

        if eta == n:
            # all points coincide with the iterate
            return SpatialMedianResult(theta, True, it, float(dist.sum()))

        if eta == 0:
            # no row at the iterate, so no mask copies; order="C" sums the rows
            # in the order a masked copy (always C-ordered) would, for any layout of x
            w = 1.0 / dist
            theta = np.multiply(x, w[:, None], order="C").sum(axis=0) / w.sum()
        else:
            away = ~at_anchor
            w = 1.0 / dist[away]
            r = float(np.linalg.norm((diff[away] * w[:, None]).sum(axis=0)))
            if r <= eta:
                # the anchor point is the minimizer
                return SpatialMedianResult(theta, True, it, float(dist.sum()))
            t_map = (x[away] * w[:, None]).sum(axis=0) / w.sum()
            lam = eta / r
            theta = (1.0 - lam) * t_map + lam * theta
        # the next step's differences and distances, also used for the stopping test
        diff = x - theta
        dist = np.linalg.norm(diff, axis=1)
        grad = -diff / np.maximum(dist, anchor_eps)[:, None]
        if np.linalg.norm(grad.sum(axis=0)) <= tol:
            return SpatialMedianResult(theta, True, it, float(dist.sum()))

    return SpatialMedianResult(theta, False, max_iter, float(dist.sum()))


def center(sample: Sample, mode: str = "none") -> Sample:
    """Return the sample unchanged or shifted by its spatial median."""
    if mode == "none":
        return sample
    if mode == "spatial-median":
        med = spatial_median(sample)
        if not med.converged:
            warnings.warn(
                f"spatial median did not converge in {med.n_iter} iterations; "
                "centering uses the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        return Sample(sample.data - med.point)
    raise ValueError(f"unknown centering mode: {mode!r}")
