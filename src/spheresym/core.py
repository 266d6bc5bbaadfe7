"""Kernel evaluation, the pair Gram matrix and the pairwise asymmetry statistic.

The statistic is the average, over all pairs of augmented observations
(X_i, X'_i), (X_j, X'_j), of the four-term Gaussian-kernel combination

    g = K(X_i, X_j) + K(X'_i, X'_j) - K(X_i, X'_j) - K(X_j, X'_i)

with K(x, y) = exp(-||x - y||^2 / (2 d)).  The bandwidth is always the data
dimension d; there is no user-tunable bandwidth.

The pair values g_ij are computed once into the dense n x n matrix G of a
:class:`GramCache` (8 n^2 bytes).  :func:`build_gram` fills G in square tiles
of ``TILE`` rows, one upper tile pair (I, J), J >= I, at a time, through
``threads.fan_out`` on as many threads as numpy's BLAS is set to use.
Besides G it needs only two tile buffers per thread, a few MB.  Summed in
the order above, G is bit for bit the matrix a full 2n x 2n kernel matrix
over the stacked rows would give.  The observed statistic and every swap
resample are signed quadratic forms in G (:func:`swap_statistic`), so
resampling (see ``calibrate``) never re-evaluates an exponential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .threads import blas_threads, fan_out

TILE = 512  # rows per Gram tile; at n <= TILE, G is one diagonal tile


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


def _kernel_tile(a: np.ndarray, b: np.ndarray, d: int, buf: np.ndarray) -> np.ndarray:
    """K(a, b), written into the front of the flat buffer ``buf``."""
    out = buf[: len(a) * len(b)].reshape(len(a), len(b))
    # Direct squared differences (not the norm-expansion identity): exact
    # cancellation for identical rows matters for the g = 0 identities.
    cdist(a, b, "sqeuclidean", out=out)
    out /= -(2.0 * d)
    return np.exp(out, out=out)


def _fill_tile_pair(g, x, v, d, rows, cols, bufs) -> None:
    """Write G's blocks (rows, cols) and (cols, rows); ``rows`` starts at or before ``cols``.

    Every entry is summed as (Kxx + Kx'x') - E_ij - E_ji with E = K(X, X').
    Squared distances are bit-for-bit symmetric, so the lower block starts as
    the transpose of the upper one's Kxx + Kx'x'; only E is evaluated both ways.
    A diagonal tile uses only the first of the two buffers ``bufs``.
    """
    a, b = bufs
    upper = g[rows, cols]
    np.copyto(upper, _kernel_tile(x[rows], x[cols], d, a))
    upper += _kernel_tile(v[rows], v[cols], d, a)
    diagonal = rows == cols
    if not diagonal:
        lower = g[cols, rows]
        np.copyto(lower, upper.T)
    e_upper = _kernel_tile(x[rows], v[cols], d, a)
    upper -= e_upper
    if diagonal:
        upper -= e_upper.T
        return
    e_lower = _kernel_tile(x[cols], v[rows], d, b)
    lower -= e_lower
    upper -= e_lower.T
    lower -= e_upper.T


def build_gram(aug: AugmentedSample) -> GramCache:
    """Evaluate G = K(X, X) + K(X', X') - E - E^T with E = K(X, X'), tile pair by tile pair.

    Tile pairs are independent and ``cdist`` and ``exp`` release the GIL, so
    they run through :func:`threads.fan_out` on one thread per BLAS thread
    (at most one per tile pair), each thread with its own two tile buffers
    (one, for a one-tile G); a single worker fills every pair on the calling
    thread.  A sample whose G and buffers would not fit in physical memory
    is refused before anything is allocated.
    """
    n, d = aug.n, aug.d
    tile = min(TILE, n)
    starts = range(0, n, tile)
    pairs = [(slice(r, r + tile), slice(c, c + tile)) for r in starts for c in starts if c >= r]
    workers = min(blas_threads(), len(pairs))
    # A one-tile G needs no second buffer; allocating one anyway costs every
    # small-sample build a fresh n x n block of page faults (~15% at n = 500).
    second = len(pairs) > 1
    need = 8 * n * n + workers * (2 if second else 1) * tile * tile * 8
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"the dense Gram matrix for n = {n} needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    x, v = aug.original.data, aug.variant
    g = np.empty((n, n))
    # Allocated on the calling thread: allocating them in the pool threads
    # cost 2.5% of the build's speed and 7 MB of peak RSS at n = 2000.
    buffers = [(np.empty(tile * tile), np.empty(tile * tile) if second else None)
               for _ in range(workers)]
    fan_out(lambda bufs, pair: _fill_tile_pair(g, x, v, d, *pair, bufs), pairs, buffers)
    np.fill_diagonal(g, 0.0)
    g.flags.writeable = False
    return GramCache(g=g, n=n, d=d)


@dataclass(frozen=True)
class ZetaEstimate:
    """Value of the pairwise statistic, as :func:`zeta_hat` returns it.

    :func:`swap_statistic` has already checked that the value lies in [-2, 2].
    """

    value: float


def swap_statistic(cache: GramCache, signs: np.ndarray):
    """Statistic s^T G s / (n (n-1)) after the swaps the signs select.

    s_i = +1 keeps pair i and s_i = -1 swaps it, so all ones gives the
    observed statistic, and -s gives the same value as s.  ``signs`` is one
    length-n vector (returns a float) or an (m, n) array of them (returns m
    values); any entry other than +1 or -1 is refused, and so is a value
    outside [-2, 2].  Every statistic the package reports, observed or
    resampled, is computed and range-checked here.
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
    if not (np.abs(values) <= 2.0 + 1e-12).all():
        raise ValueError(f"statistic out of range [-2, 2]: {values[np.argmax(np.abs(values))]}")
    return float(values[0]) if s.ndim == 1 else values


def zeta_hat(aug: AugmentedSample, cache: GramCache) -> ZetaEstimate:
    """U-statistic average of g over all pairs i < j, read from the cache."""
    if cache.n != aug.n or cache.d != aug.d:
        raise ValueError("cache does not match the augmented sample")
    return ZetaEstimate(value=swap_statistic(cache, np.ones(aug.n)))
