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

The Haar draws run in blocks of consecutive rows through ``threads.fan_out``,
as the resampling pass's tile pairs do, on as many threads as numpy's BLAS is set to
use, so ``--threads`` caps them too.  Each task draws the normals of the next
block under one lock, so block after block takes the stream in order and the
seed fixes every draw; outside the lock it runs the block's QR, sign fix,
conjugation and log-determinants, which act matrix by matrix, while another
thread draws.  The estimate and its standard error are bit-identical for any
thread count.

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

_HAAR_CHUNK = 20_000
# Rows drawn and reduced per thread task; keeps QR's temporaries to a few MB at d = 10.
_HAAR_BLOCK = 2_000


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

    Equals det((Sigma1 + Sigma2)/d + I)^(-1/2), computed through the
    log-determinant of the symmetric matrix for stability in large d.
    """
    if sigma1.d != d or sigma2.d != d:
        raise ValueError("covariance dimensions do not match d")
    m = (sigma1.sigma + sigma2.sigma) / d + np.eye(d)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("determinant not positive; inputs not PSD?")
    return float(np.exp(-0.5 * logdet))


def _haar_from_normals(a: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from a batch of standard normal ones (QR, sign fix)."""
    q, r = np.linalg.qr(a)
    # Mezzadri's fix: make R's diagonal positive so that Q is Haar distributed.
    signs = np.sign(np.einsum("mii->mi", r))
    signs[signs == 0] = 1.0
    q *= signs[:, None, :]
    return q


def _conjugate(h: np.ndarray, sigma: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """H Sigma H^T for every H in the batch ``h``, as two batched matmuls."""
    return np.matmul(h @ sigma, h.transpose(0, 2, 1), out=out)


def _pair_values(out: np.ndarray, sigma: np.ndarray, s2: np.ndarray, d: int) -> None:
    """det((Sigma + S2)/d + I)^(-1/2) for each S2 in the batch into ``out``; overwrites ``s2``."""
    m = np.add(sigma, s2, out=s2)
    m /= d
    m += np.eye(d)
    _, logdet = np.linalg.slogdet(m)
    np.exp(-0.5 * logdet, out=out)


def is_scalar_identity(sigma: CovSpec, tol: float = 1e-12) -> bool:
    c = np.trace(sigma.sigma) / sigma.d
    return float(np.linalg.norm(sigma.sigma - c * np.eye(sigma.d))) < tol


def _chunked_mean_var(values, m: int) -> tuple[float, float]:
    """Mean and variance of m values, drawn by ``values(k)`` in chunks of k <= _HAAR_CHUNK.

    Each chunk's squared deviations are summed about its own mean, and the
    chunks are merged with the update of Chan, Golub and LeVeque, so the
    variance does not cancel away when the values barely vary.
    """
    mean = m2 = 0.0
    done = 0
    while done < m:
        k = min(m - done, _HAAR_CHUNK)
        vals = values(k)
        chunk_mean = vals.mean()
        delta = chunk_mean - mean
        mean += delta * k / (done + k)
        m2 += ((vals - chunk_mean) ** 2).sum() + delta**2 * done * k / (done + k)
        done += k
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
    workers = range(blas_threads())  # fan_out's states; the blocks need none
    lock = threading.Lock()

    def values(k):
        # The values of k fresh draws, one block of rows per task.  A task's
        # rows are picked under the lock, not from fan_out's task: the next
        # rows take the next normals, so the seed fixes every H whichever
        # thread draws them.
        out = np.empty(k)
        starts = range(0, k, _HAAR_BLOCK)
        untaken = iter(starts)

        def task(_, __):
            with lock:
                lo = next(untaken)
                a = gen.standard_normal((min(_HAAR_BLOCK, k - lo), d, d))
            conj = _conjugate(_haar_from_normals(a), s, out=a)
            _pair_values(out[lo:lo + len(a)], s, conj, d)

        fan_out(task, starts, workers)
        return out

    mean, var = _chunked_mean_var(values, haar.m)
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
