"""Kernel evaluation, the pair Gram matrix and the pairwise asymmetry statistic.

The statistic is the average, over all pairs of augmented observations
(X_i, X'_i), (X_j, X'_j), of the four-term Gaussian-kernel combination

    g = K(X_i, X_j) + K(X'_i, X'_j) - K(X_i, X'_j) - K(X_j, X'_i)

with K(x, y) = exp(-||x - y||^2 / (2 d)).  The bandwidth is always the data
dimension d; there is no user-tunable bandwidth.

The pair values g_ij are computed once into the dense n x n matrix G of a
:class:`GramCache` (8 n^2 bytes), from three n x n kernel blocks
K(X, X), K(X', X') and K(X, X').  Summed in the order above, G is bit for bit
the matrix a full 2n x 2n kernel matrix over the stacked rows would give,
at a quarter of its memory.  The observed statistic and every swap resample
are signed quadratic forms in G (:func:`swap_statistic`), so resampling (see
``calibrate``) never re-evaluates an exponential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of observations, rows = observations.

    Entries must be finite.  A single-row sample is accepted (the Gram cache
    is well defined for n = 1); the statistic itself requires n >= 2.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"sample needs n >= 1 rows and d >= 1 columns, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("sample contains NaN or Inf")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AugmentedSample:
    """Pairs (X_i, X'_i) where X'_i = ||X_i|| U_i lies on the same sphere shell.

    Row norms of ``variant`` match those of ``original`` (zero rows map to
    zero rows).  Construction lives in :func:`spheresym.augment.augment`.
    """

    original: Sample
    variant: np.ndarray

    def __post_init__(self):
        variant = np.asarray(self.variant, dtype=float)
        if variant.shape != self.original.data.shape:
            raise ValueError(
                f"variant shape {variant.shape} != original shape {self.original.data.shape}"
            )
        norm_o = np.linalg.norm(self.original.data, axis=1)
        norm_v = np.linalg.norm(variant, axis=1)
        if not np.allclose(norm_v, norm_o, rtol=1e-9, atol=1e-300):
            raise ValueError("variant row norms do not match original row norms")
        object.__setattr__(self, "variant", variant)

    @property
    def n(self) -> int:
        return self.original.n

    @property
    def d(self) -> int:
        return self.original.d


@dataclass(frozen=True)
class GramCache:
    """Dense n x n matrix G of pair values g_ij, with a zero diagonal.

    Built by :func:`build_gram`; ``g`` is its only array, 8 n^2 bytes, and is
    read-only.  G is bit-identical to the matrix derived from a mirrored
    2n x 2n kernel matrix over (X_1..X_n, X'_1..X'_n) (``tests/oracles.py``
    keeps that construction as the reference).  It is symmetric to rounding,
    not bit for bit, and its entries lie in [-2, 2].
    """

    g: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        if self.g.shape != (self.n, self.n):
            raise ValueError(f"Gram matrix shape {self.g.shape} != ({self.n}, {self.n})")


def _physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS does not say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return pages * page_size


def _kernel_block(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    # Direct squared differences (not the norm-expansion identity): exact
    # cancellation for identical rows matters for the g = 0 identities.
    k = cdist(a, b, "sqeuclidean")
    k /= -(2.0 * d)
    return np.exp(k, out=k)


def build_gram(aug: AugmentedSample) -> GramCache:
    """Evaluate G = K(X, X) + K(X', X') - E - E^T with E = K(X, X').

    At most two n x n blocks are alive at once; a sample whose blocks would
    not fit in physical memory is refused before anything is allocated.
    """
    n, d = aug.n, aug.d
    need = 16 * n * n
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"the dense Gram matrix for n = {n} needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    x, v = aug.original.data, aug.variant
    # This summation order keeps G bit-identical to the 2n x 2n derivation.
    g = _kernel_block(x, x, d)
    g += _kernel_block(v, v, d)
    e = _kernel_block(x, v, d)
    g -= e
    g -= e.T
    np.fill_diagonal(g, 0.0)
    g.flags.writeable = False
    return GramCache(g=g, n=n, d=d)


@dataclass(frozen=True)
class ZetaEstimate:
    """Value of the pairwise statistic; always within [-2, 2]."""

    value: float

    def __post_init__(self):
        if not abs(self.value) <= 2.0 + 1e-12:
            raise ValueError(f"statistic out of range [-2, 2]: {self.value}")


def swap_statistic(cache: GramCache, signs: np.ndarray):
    """Statistic s^T G s / (n (n-1)) after the swaps the signs select.

    s_i = +1 keeps pair i and s_i = -1 swaps it, so all ones gives the
    observed statistic, and -s gives the same value as s.  ``signs`` is one
    length-n vector (returns a float) or an (m, n) array of them (returns m
    values); any entry other than +1 or -1 is refused.  Every statistic the
    package reports, observed or resampled, is computed here.
    """
    n = cache.n
    if n < 2:
        raise ValueError("statistic needs at least two observations")
    s = np.asarray(signs, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != n:
        raise ValueError(f"signs of shape {s.shape} do not match n = {n}")
    if not ((s == 1) | (s == -1)).all():
        raise ValueError("sign entries must be +1 or -1")
    rows = np.atleast_2d(s)
    values = np.einsum("ij,ij->i", rows @ cache.g, rows) / (n * (n - 1))
    return float(values[0]) if s.ndim == 1 else values


def zeta_hat(aug: AugmentedSample, cache: GramCache) -> ZetaEstimate:
    """U-statistic average of g over all pairs i < j, read from the cache."""
    if cache.n != aug.n or cache.d != aug.d:
        raise ValueError("cache does not match the augmented sample")
    return ZetaEstimate(value=swap_statistic(cache, np.ones(aug.n)))
