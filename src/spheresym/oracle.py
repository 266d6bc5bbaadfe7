"""Ground-truth values of the asymmetry measure, used as test oracles.

For a centered Gaussian with covariance Sigma the measure is
E K(X, X~) - E K(X, X~'), with X' = H X for a Haar H: one exact determinant
term, det(2 Sigma / d + I)^(-1/2), less one integral over the orthogonal group
under Haar measure, E det((Sigma + H Sigma H^T)/d + I)^(-1/2), estimated here
by Monte Carlo.  The paper's third term E K(X', X~') equals E K(X, X~'): the
kernel is rotation invariant and X~' is spherically symmetric, so
K(H1 X, X~') = K(X, H1^T X~') and H1^T X~' has the law of X~'.  For a
covariance that is a scalar multiple of the identity, every rotation fixes the
law and the measure is exactly zero; that case short-circuits.

The Haar draws run in blocks of consecutive rows through one ``threads.fan_out``
per call, on as many threads as numpy's OpenBLAS is set to use (BLAS itself
held at one meanwhile), so ``OPENBLAS_NUM_THREADS`` caps them too.  Each
task draws the normals of the next block under one lock, so block after
block takes the stream in order and the seed fixes every draw; outside the
lock it runs the block's Gram-Schmidt, conjugation and Cholesky factors (over
the whole block at once, batch axis innermost, in three block buffers each
thread keeps for the call) while another thread draws, and reduces the
block to its mean and sum of squared deviations.  Merged in block order,
these give an estimate and standard error bit-identical for any thread
count.  Both determinant terms come from one batched Cholesky
routine, the exact term as a batch of one; a matrix that overflows float64 or
loses its identity to rounding is refused with a ``ValueError`` that asks for
a rescale.

A generic large-sample Monte Carlo estimate (``mc_zeta``) is also provided,
exploiting unbiasedness of the pairwise statistic.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .augment import augment
from .core import swap_values
from .rng import RngStream
from .threads import blas_threads, fan_out

# Rows drawn and reduced per thread task; keeps a block's temporaries to a few MB at d = 10.
_HAAR_BLOCK = 2_000
_LOST = "the identity is lost to rounding beside entries this large; rescale the covariance"


@dataclass(frozen=True)
class CovSpec:
    """A d x d symmetric positive-semidefinite covariance matrix."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"covariance must be square, got shape {sigma.shape}")
        if sigma.shape[0] < 1:
            raise ValueError("covariance must be at least 1 x 1")
        if not np.isfinite(sigma).all():
            raise ValueError("covariance entries must be finite")
        if not np.allclose(sigma, sigma.T, atol=1e-12, rtol=0):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-10:
            raise ValueError("covariance must be positive semi-definite")
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class HaarConfig:
    """Monte Carlo budget for the orthogonal-group integral: m Haar draws from ``seed``."""

    m: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def gaussian_pair_term(sigma1: CovSpec, sigma2: CovSpec, d: int) -> float:
    """E exp(-||X1 - X2||^2 / (2d)) for independent centered Gaussians.

    Equals det(M)^(-1/2) with M = (Sigma1 + Sigma2)/d + I, taken from
    ``_pair_values`` as a batch of one.  Cholesky's error is bounded through
    the condition number of M scaled to a unit diagonal, so M is refused with
    a ``ValueError`` that asks for a rescale when d eps cond(D^-1/2 M D^-1/2)
    > 1e-6, D = diag(M): 8.9e-4 at 1e12 * ones((2, 2)), where the added I is
    partly lost.  Only this matrix is checked, not each Haar draw.
    """
    if sigma1.d != d or sigma2.d != d:
        raise ValueError("covariance dimensions do not match d")
    m = sigma2.sigma[None].copy()
    value = np.empty(1)
    with np.errstate(over="ignore", invalid="ignore"):
        _pair_values(value, sigma1.sigma, m, d)
    scale = 1.0 / np.sqrt(np.diag(m[0]))
    low, high = np.linalg.eigvalsh(m[0] * np.outer(scale, scale))[[0, -1]]
    if d * np.finfo(float).eps * high > 1e-6 * low:
        raise ValueError(f"(Sigma1 + Sigma2)/d + I is too ill-conditioned for float64: {_LOST}")
    return float(value[0])


def _haar_from_normals(a: np.ndarray, cols: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Haar orthogonal matrices from a batch of standard normal ones.

    Each Q is the Q factor of a's QR decomposition with R's diagonal positive,
    which is Haar distributed (Mezzadri, Notices AMS 2007).  Gram-Schmidt's R
    has a positive diagonal by construction, and classical Gram-Schmidt run
    twice per column (CGS2) keeps Q orthogonal to machine precision (Giraud
    et al., Numer. Math. 2005).  The columns are laid out as (column, row,
    batch) in ``cols``, so every step is one numpy operation over the whole
    batch; Q goes to ``out`` (a's shape).  Either is allocated when not given.
    """
    k, d, _ = a.shape
    cols = np.empty((d, d, k)) if cols is None else cols
    np.copyto(cols, a.transpose(2, 1, 0))
    for j, v in enumerate(cols):
        done = cols[:j]
        for _ in range(2):
            v -= np.einsum("ik,irk->rk", np.einsum("irk,rk->ik", done, v), done)
        v /= np.sqrt(np.einsum("rk,rk->k", v, v))
    out = np.empty_like(a) if out is None else out
    np.copyto(out, cols.transpose(2, 1, 0))
    return out


def _conjugate(h: np.ndarray, sigma: np.ndarray, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """H Sigma H^T for every H in the batch ``h``, as two batched matmuls; H Sigma goes to ``scratch``."""
    return np.matmul(np.matmul(h, sigma, out=scratch), h.transpose(0, 2, 1), out=out)


def _pair_values(out: np.ndarray, sigma: np.ndarray, s2: np.ndarray, d: int,
                 low: np.ndarray | None = None) -> None:
    """det((Sigma + S2)/d + I)^(-1/2) for each S2 in the batch into ``out``; overwrites ``s2`` with M.

    Each M = (Sigma + S2)/d + I is symmetric with M >= I, so it has a Cholesky
    factor L with every L_ii >= 1, and the value is 1 / prod L_ii.  L is built
    column by column over the whole batch, with the batch axis innermost:
    ``low[p, i]`` holds L_ip of every matrix (a (d, d, batch) buffer, allocated
    when not given).  An M that overflows is refused with a ``ValueError``, as
    is one with some L_ii^2 below 1/2: only rounding can give that, when the
    added I is lost beside large entries.
    """
    m = np.add(sigma, s2, out=s2)
    m /= d
    m += np.eye(d)
    if not np.isfinite(m).all():
        raise ValueError("entries of (Sigma + S)/d + I overflow float64; rescale the covariance")
    low = np.empty((d, d, len(m))) if low is None else low
    prod = np.ones(len(m))
    for j in range(d):
        col = m[:, j:, j].T - np.einsum("pik,pk->ik", low[:j, j:], low[:j, j])
        if not (col[0] >= 0.5).all():
            raise ValueError(f"(Sigma + S)/d + I has a Cholesky pivot far below 1 in float64: {_LOST}")
        diag = np.sqrt(col[0])
        np.divide(col, diag, out=low[j, j:])
        prod *= diag
    np.divide(1.0, prod, out=out)


def is_scalar_identity(sigma: CovSpec) -> bool:
    """True when Sigma is within 1e-12 of c I in Frobenius norm, c = trace / d."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm reads inf: not scalar
        c = np.trace(sigma.sigma) / sigma.d
        return float(np.linalg.norm(sigma.sigma - c * np.eye(sigma.d))) < 1e-12


def _merged_mean_var(blocks: np.ndarray, m: int) -> tuple[float, float]:
    """Mean and variance of m values from one (mean, sum of squared deviations) row per block.

    Row b covers values b * _HAAR_BLOCK onward.  The rows are merged in block
    order with the update of Chan, Golub and LeVeque, so the variance does not
    cancel away when the values barely vary.
    """
    mean = m2 = 0.0
    for done, (block_mean, block_m2) in zip(range(0, m, _HAAR_BLOCK), blocks):
        k = min(_HAAR_BLOCK, m - done)
        delta = block_mean - mean
        mean += delta * k / (done + k)
        m2 += block_m2 + delta**2 * done * k / (done + k)
    return mean, m2 / m


def gaussian_zeta(sigma: CovSpec, d: int, haar: HaarConfig = HaarConfig()) -> tuple[float, float]:
    """Closed-form-plus-Haar-MC value of the measure for N(0, Sigma).

    Returns (estimate, std_error): the determinant term less the mean of
    det((Sigma + H Sigma H^T)/d + I)^(-1/2) over ``haar.m`` Haar draws, and
    that mean's standard error.  Exact (0, 0) when Sigma is a scalar multiple
    of the identity.  Bit-identical for any number of BLAS threads.
    """
    if sigma.d != d:
        raise ValueError("covariance dimension does not match d")
    if is_scalar_identity(sigma):
        return 0.0, 0.0

    term1 = gaussian_pair_term(sigma, sigma, d)

    gen = RngStream(haar.seed, (0,)).generator()
    s = sigma.sigma
    starts = range(0, haar.m, _HAAR_BLOCK)
    untaken = iter(starts)
    lock = threading.Lock()
    blocks = np.empty((len(starts), 2))
    # Three flat block buffers per thread, reused by every block it runs, so a
    # block works in pages the thread has already touched: the normals, then
    # H Sigma H^T and M; the Gram-Schmidt columns, then H Sigma, then the
    # Cholesky factor; and Q.
    size = min(_HAAR_BLOCK, haar.m) * d * d
    buffers = [tuple(np.empty(size) for _ in range(3)) for _ in range(min(blas_threads(), len(starts)))]

    def task(state, _):
        # A task's block is picked under the lock, not from fan_out's task: the
        # next block takes the next normals, so the seed fixes every H whichever
        # thread draws them.
        with lock:
            lo = next(untaken)
            k = min(_HAAR_BLOCK, haar.m - lo)
            a = gen.standard_normal(out=state[0][: k * d * d].reshape(k, d, d))
        second, q = (buf[: k * d * d] for buf in state[1:])
        vals = np.empty(k)
        with np.errstate(over="ignore", invalid="ignore"):  # _pair_values refuses an inf M
            h = _haar_from_normals(a, second.reshape(d, d, k), q.reshape(k, d, d))
            conj = _conjugate(h, s, out=a, scratch=second.reshape(k, d, d))
            _pair_values(vals, s, conj, d, low=second.reshape(d, d, k))
        block_mean = vals.mean()
        blocks[lo // _HAAR_BLOCK] = block_mean, ((vals - block_mean) ** 2).sum()

    fan_out(task, starts, buffers)
    mean, var = _merged_mean_var(blocks, haar.m)
    return float(term1 - mean), float(np.sqrt(var / haar.m))


def mc_zeta(spec, n_big: int = 200, reps: int = 200, rng: RngStream = RngStream(0)) -> tuple[float, float]:
    """Mean and standard error of the pairwise statistic over fresh samples.

    ``spec`` is a DistributionSpec from :mod:`spheresym.distributions`.
    Needs ``n_big >= 2`` (the statistic's minimum) and ``reps >= 2`` (for
    the standard error).
    """
    from .distributions import sample as sample_dist

    if n_big < 2:
        raise ValueError(f"n_big must be >= 2, got {n_big}")
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error, got {reps}")

    values = np.empty(reps)
    for r in range(reps):
        s = sample_dist(spec, n_big, rng.child(r, 0))
        values[r] = swap_values(augment(s, rng.child(r, 1)))[0]
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(reps))
