"""Kernel evaluation, the pair values and the pairwise asymmetry statistic.

The statistic is the average, over all pairs of augmented observations
(X_i, X'_i), (X_j, X'_j), of the four-term Gaussian-kernel combination

    g = K(X_i, X_j) + K(X'_i, X'_j) - K(X_i, X'_j) - K(X_j, X'_i)

with K(x, y) = exp(-||x - y||^2 / (2 d)).  The bandwidth is always the data
dimension d; there is no user-tunable bandwidth.

The observed statistic and every swap resample are signed quadratic forms
s^T G s / (n (n-1)) in the n x n matrix G of pair values g_ij (zero
diagonal), read from the :class:`AugmentedSample` itself, and no code
holds G.  :func:`swap_values` splits it into square tiles of ``TILE`` rows
and, for each upper tile pair (I, J), J >= I, builds the tile G_IJ
(:func:`gram_tile`), takes its share s_I^T G_IJ s_J of every form (doubled
off the diagonal) and drops it.  The tile pairs run through
``threads.fan_out`` on as many threads as numpy's BLAS is set to use, with
BLAS held at one thread while more than one runs, and their shares are
summed in pair order, so past one tile the values are the same bit for bit
on any thread count (a one-tile pass runs its product on BLAS's own
threads).  Besides the B x n signs and B + 1 shares per tile pair, a pass
needs per thread one tile of G and one scratch buffer for its kernel blocks
and its B-row product: O(B n) memory in all.  Each upper tile is evaluated
once per pass, for the observed value and all B resamples together, and
every tile is bit for bit the block of the matrix a full 2n x 2n kernel
matrix over the stacked rows would give (``tests/oracles.py`` keeps that
construction).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .threads import blas_threads, fan_out, thread_limit

TILE = 512  # rows per Gram tile; at n <= TILE, G is one diagonal tile


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of observations, rows = observations.

    Entries must be finite.  A single-row sample is accepted (its one Gram
    tile is well defined); the statistic itself requires n >= 2.
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

    Every statistic and p-value is computed from this object.  Entries of
    ``variant`` must be finite, and its row norms match those of
    ``original`` (zero rows map to zero rows).  Construction lives in
    :func:`spheresym.augment.augment`.
    """

    original: Sample
    variant: np.ndarray

    def __post_init__(self):
        variant = np.asarray(self.variant, dtype=float)
        if variant.shape != self.original.data.shape:
            raise ValueError(
                f"variant shape {variant.shape} != original shape {self.original.data.shape}"
            )
        if not np.isfinite(variant).all():
            raise ValueError("variant contains NaN or Inf")
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


def gram_tile(aug: AugmentedSample, rows: slice, cols: slice, out=None, scratch=None) -> np.ndarray:
    """G's block (rows, cols), written into the front of the flat buffer ``out``.

    Every entry is summed as (Kxx + Kx'x') - E_ij - E_ji with E = K(X, X'),
    the kernel blocks evaluated in the flat buffer ``scratch``; both buffers
    need room for the block, and None gives a fresh one.  A diagonal block
    (rows == cols) evaluates E once and has a zero diagonal.  Squared
    distances are bit-for-bit symmetric, so any block is bit for bit that of
    the matrix derived from a full 2n x 2n kernel matrix.
    """
    x, v, d = aug.original.data, aug.variant, aug.d
    size = len(x[rows]) * len(x[cols])
    out = np.empty(size) if out is None else out
    scratch = np.empty(size) if scratch is None else scratch
    g = _kernel_tile(x[rows], x[cols], d, out)
    g += _kernel_tile(v[rows], v[cols], d, scratch)
    e = _kernel_tile(x[rows], v[cols], d, scratch)
    g -= e
    if rows == cols:
        g -= e.T
        np.fill_diagonal(g, 0.0)
    else:
        g -= _kernel_tile(x[cols], v[rows], d, scratch).T
    return g


def resample_plan(n: int, B: int):
    """Tile size, upper tile pairs and thread count of a pass over B sign vectors.

    A pass holds the B x n signs, B + 1 shares per tile pair and, per
    thread, one tile of G and one scratch buffer for its kernel blocks and
    its B-row product.  One that would not fit in physical memory is
    refused; the count uses Python integers only, so a refused size
    allocates nothing.
    """
    tile = min(TILE, n)
    starts = range(0, n, tile)
    pairs = [(slice(r, r + tile), slice(c, c + tile)) for r in starts for c in starts if c >= r]
    workers = min(blas_threads(), len(pairs))
    need = 8 * (B * n + len(pairs) * (B + 1) + workers * (tile * tile + max(tile * tile, B * tile)))
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"resampling n = {n} pairs with B = {B} sign vectors needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    return tile, pairs, workers


def _forms(left: np.ndarray, g: np.ndarray, right: np.ndarray, out: np.ndarray, product) -> None:
    """Row-by-row s^T G t for the rows s of ``left`` and t of ``right``, through ``product``."""
    np.einsum("ij,ij->i", np.matmul(left, g, out=product), right, out=out)


def _tile_shares(aug, rows, cols, signs, ones, shares, out, scratch) -> np.ndarray:
    """Build G's tile (rows, cols) and write its share of every form to ``shares``; return the tile.

    ``shares`` gets the all-ones form first, then one value per row of
    ``signs``, doubled off the diagonal for the mirror tile (cols, rows).
    """
    g = gram_tile(aug, rows, cols, out, scratch)
    c = g.shape[1]
    _forms(ones[:, rows], g, ones[:, cols], shares[:1], scratch[:c].reshape(1, c))
    if len(signs):
        _forms(signs[:, rows], g, signs[:, cols], shares[1:], scratch[: len(signs) * c].reshape(-1, c))
    if rows != cols:
        shares *= 2.0
    return g


def _statistics(shares: np.ndarray, n: int) -> np.ndarray:
    """The rows of ``shares`` summed in pair order, over n (n - 1); a value outside [-2, 2] is refused."""
    if n < 2:
        raise ValueError("statistic needs at least two observations")
    values = shares[0].copy()
    for row in shares[1:]:  # in pair order; sum(axis=0) sums one column pairwise
        values += row
    values /= n * (n - 1)
    if not (np.abs(values) <= 2.0 + 1e-12).all():
        raise ValueError(f"statistic out of range [-2, 2]: {values[np.argmax(np.abs(values))]}")
    return values


def swap_values(aug: AugmentedSample, signs: np.ndarray | None = None) -> np.ndarray:
    """The observed statistic, then s^T G s / (n (n-1)) for each row s of ``signs``, in one pass.

    ``signs`` is a (B, n) array of +1/-1 entries, which are not checked here
    (:func:`swap_statistic` checks them); None stands for B = 0.  Each tile
    pair's shares, the all-ones form first, go to its own row of a
    (pairs x (B + 1)) array, summed in pair order.  While more than one
    thread builds tiles, BLAS is held at one thread.  A value outside
    [-2, 2] is refused.
    """
    n = aug.n
    s = np.empty((0, n)) if signs is None else signs
    B = len(s)
    tile, pairs, workers = resample_plan(n, B)
    ones = np.ones((1, n))
    shares = np.empty((len(pairs), B + 1))
    # Allocated on the calling thread: allocating them in the pool threads
    # cost 2.5% of the build's speed and 7 MB of peak RSS at n = 2000.
    buffers = [(np.empty(tile * tile), np.empty(max(tile * tile, B * tile))) for _ in range(workers)]

    def share(bufs, task):
        p, (rows, cols) = task
        _tile_shares(aug, rows, cols, s, ones, shares[p], *bufs)

    hold = thread_limit(1) if workers > 1 else None
    with hold or contextlib.nullcontext():
        fan_out(share, list(enumerate(pairs)), buffers)
    return _statistics(shares, n)


def one_tile(aug: AugmentedSample) -> tuple[np.ndarray, float]:
    """G built as one tile, and the observed statistic with the bits :func:`swap_values` gives at n <= TILE.

    For small samples that need G itself (the exact enumeration).
    """
    n = aug.n
    whole = slice(0, n)
    shares = np.empty((1, 1))
    g = _tile_shares(aug, whole, whole, np.empty((0, n)), np.ones((1, n)), shares[0],
                     np.empty(n * n), np.empty(n * n))
    return g, float(_statistics(shares, n)[0])


def swap_statistic(aug: AugmentedSample, signs: np.ndarray):
    """Statistic s^T G s / (n (n-1)) after the swaps the signs select.

    s_i = +1 keeps pair i and s_i = -1 swaps it, so all ones gives the
    observed statistic, and -s gives the same value as s.  ``signs`` is one
    length-n vector (returns a float) or an (m, n) array of them (returns m
    values); any entry other than +1 or -1 is refused, and so is a value
    outside [-2, 2].  The values are those of :func:`swap_values`.
    """
    n = aug.n
    s = np.asarray(signs, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != n:
        raise ValueError(f"signs of shape {s.shape} do not match n = {n}")
    if not ((s == 1) | (s == -1)).all():
        raise ValueError("sign entries must be +1 or -1")
    values = swap_values(aug, np.atleast_2d(s))[1:]
    return float(values[0]) if s.ndim == 1 else values


def build_gram(aug: AugmentedSample) -> AugmentedSample:
    """Returns ``aug``.  Kept only for the benchmark's imports; goes with ROADMAP item 1."""
    return aug


@dataclass(frozen=True)
class ZetaEstimate:
    """The value :func:`zeta_hat` returns.  Kept only for the benchmark; goes with ROADMAP item 1."""

    value: float


def zeta_hat(aug: AugmentedSample, cache) -> ZetaEstimate:
    """The observed statistic of ``aug``; ``cache`` is not read.

    Kept only for the benchmark's imports; goes with ROADMAP item 1.
    """
    return ZetaEstimate(value=float(swap_values(aug)[0]))
