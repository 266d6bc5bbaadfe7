"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: statistics are recomputed from raw
exponentials with double loops, resamples rebuild the swapped dataset from
scratch, and the 2-d rotation integrals use composite Simpson quadrature.
Nothing imports the fast paths it is meant to check; ``direct_exact_pvalue``
checks only the enumeration of ``calibrate.exact_pvalue`` and so evaluates
each mask through ``core.swap_statistic``; ``serial_gaussian_zeta`` checks
only how ``oracle.gaussian_zeta`` computes its draws and so reuses its seed
and closed-form term.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from spheresym.core import AugmentedSample, Sample, swap_statistic
from spheresym.oracle import gaussian_pair_term, is_scalar_identity
from spheresym.rng import RngStream


def naive_kernel(x, y, d):
    return math.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / (2.0 * d))


def naive_g(pair1, pair2, d):
    (x, xp), (y, yp) = pair1, pair2
    return (
        naive_kernel(x, y, d)
        + naive_kernel(xp, yp, d)
        - naive_kernel(x, yp, d)
        - naive_kernel(y, xp, d)
    )


def naive_zeta(original: np.ndarray, variant: np.ndarray) -> float:
    n, d = original.shape
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += naive_g((original[i], variant[i]), (original[j], variant[j]), d)
    return total / (n * (n - 1) / 2)


def naive_resampled_zeta(original, variant, mask) -> float:
    """Rebuild the swapped dataset and recompute every exponential."""
    y = np.where(np.asarray(mask)[:, None] == 1, original, variant)
    yp = np.where(np.asarray(mask)[:, None] == 1, variant, original)
    return naive_zeta(y, yp)


def swap_pairs(aug: AugmentedSample, signs) -> AugmentedSample:
    """The augmented sample with pair i swapped wherever signs[i] is -1."""
    swap = np.asarray(signs)[:, None] < 0
    return AugmentedSample(
        original=Sample(np.where(swap, aug.variant, aug.original.data)),
        variant=np.where(swap, aug.original.data, aug.variant),
    )


def naive_exact_pvalue(original, variant) -> float:
    n = original.shape[0]
    observed = naive_zeta(original, variant)
    guard = 1e-12 * max(1.0, abs(observed))
    count = 0
    for code in range(1 << n):
        mask = [(code >> i) & 1 for i in range(n)]
        if naive_resampled_zeta(original, variant, mask) >= observed - guard:
            count += 1
    return count / (1 << n)


def direct_exact_pvalue(aug) -> float:
    """Exact p-value from all 2^n masks, each value s^T G s / (n(n-1)) on its own.

    Masks are taken in chunks of 2^15 consecutive codes; each chunk is one
    batch through ``core.swap_statistic``, compared with the same guarded
    ">=" rule as ``naive_exact_pvalue``.
    """
    n = aug.n
    chunk = 1 << 15
    observed = swap_statistic(aug, np.ones(n))
    guard = 1e-12 * max(1.0, abs(observed))
    total = 1 << n
    count = 0
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = 2.0 * ((codes[:, None] >> shifts) & 1) - 1.0
        count += int((swap_statistic(aug, signs) >= observed - guard).sum())
    return count / total


def dense_kernel_matrix(original, variant) -> np.ndarray:
    """2n x 2n kernel matrix over the stacked rows (X_1..X_n, X'_1..X'_n).

    Squared distances by ``cdist`` on the stacked rows, then the upper
    triangle mirrored so the matrix is symmetric bit for bit, unit diagonal.
    """
    z = np.vstack([original, variant])
    sq = cdist(z, z, "sqeuclidean")
    k = np.exp(-sq / (2.0 * z.shape[1]))
    iu = np.triu_indices(z.shape[0], k=1)
    k[(iu[1], iu[0])] = k[iu]
    np.fill_diagonal(k, 1.0)
    return k


def g_from_kernel_matrix(k: np.ndarray) -> np.ndarray:
    """n x n pair matrix g_ij read off a 2n x 2n kernel matrix, zero diagonal."""
    n = k.shape[0] // 2
    cross = k[:n, n:]
    g = k[:n, :n] + k[n:, n:] - cross - cross.T
    np.fill_diagonal(g, 0.0)
    return g


# --- 2-d Gaussian measure by angle quadrature -----------------------------
#
# In d = 2 the orthogonal group splits into rotations R(t) and reflections
# R(t)*diag(1,-1); Haar measure is uniform over angle within each component,
# components weighted 1/2 each.  Conjugated covariances have period pi in t.


def _rotation(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


_REFLECT = np.diag([1.0, -1.0])


def _conj(sigma, t, reflected):
    h = _rotation(t)
    if reflected:
        h = h @ _REFLECT
    return h @ sigma @ h.T


def _pair_value(s1, s2):
    m = (s1 + s2) / 2.0 + np.eye(2)
    return 1.0 / math.sqrt(np.linalg.det(m))


def _simpson_weights(k):
    # composite Simpson on k+1 points, k even
    w = np.ones(k + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _quadrature_nodes(sigma, k):
    # normalized Simpson weights on [0, pi] and the conjugates at their angles
    h = math.pi / k
    ts = np.arange(k + 1) * h
    w = _simpson_weights(k) * h / math.pi
    conj = {
        flag: [_conj(sigma, t, flag) for t in ts] for flag in (False, True)
    }
    return w, conj


def quadrature_single_2d(sigma: np.ndarray, k: int = 120) -> float:
    """E det((Sigma + H Sigma H^T)/2 + I)^(-1/2) over Haar H in d = 2, by quadrature."""
    sigma = np.asarray(sigma, dtype=float)
    w, conj = _quadrature_nodes(sigma, k)
    single = 0.0
    for flag in (False, True):
        for wi, s in zip(w, conj[flag]):
            single += 0.5 * wi * _pair_value(sigma, s)
    return single


def quadrature_double_2d(sigma: np.ndarray, k: int = 120) -> float:
    """E det((H1 Sigma H1^T + H2 Sigma H2^T)/2 + I)^(-1/2) over independent Haar H1, H2."""
    sigma = np.asarray(sigma, dtype=float)
    w, conj = _quadrature_nodes(sigma, k)
    double = 0.0
    for f1 in (False, True):
        for f2 in (False, True):
            for w1, s1 in zip(w, conj[f1]):
                for w2, s2 in zip(w, conj[f2]):
                    double += 0.25 * w1 * w2 * _pair_value(s1, s2)
    return double


def quadrature_gaussian_zeta_2d(sigma: np.ndarray, k: int = 120) -> float:
    """Measure value for N(0, Sigma) in d = 2 via Simpson quadrature."""
    sigma = np.asarray(sigma, dtype=float)
    term1 = _pair_value(sigma, sigma)
    single = quadrature_single_2d(sigma, k)
    double = quadrature_double_2d(sigma, k)
    return term1 + double - 2.0 * single


# -- Gaussian oracle, serially ------------------------------------------------
#
# ``serial_gaussian_zeta`` takes the same Haar draws as ``gaussian_zeta``, in
# the same order (chunk after chunk of the one integral), conjugated with one
# einsum and reduced on one thread; the variance is numpy's two-pass variance
# over all values at once.  ``three_term_gaussian_zeta`` estimates the
# measure's three-term form, as ``quadrature_gaussian_zeta_2d`` computes it,
# with a double integral over independent Haar pairs.


def _serial_haar(d, k, gen):
    q, r = np.linalg.qr(gen.standard_normal((k, d, d)))
    signs = np.sign(np.einsum("mii->mi", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def einsum_conjugate(h, sigma):
    return np.einsum("mij,jk,mlk->mil", h, sigma, h)


def _serial_pair_values(s1, s2, d):
    _, logdet = np.linalg.slogdet((s1 + s2) / d + np.eye(d))
    return np.exp(-0.5 * logdet)


# Draws per serial chunk.  Consecutive ``standard_normal`` calls continue one
# stream, so any chunk size takes the same draws as ``gaussian_zeta``'s blocks.
_CHUNK = 20_000


def _chunk_sizes(m):
    return [min(_CHUNK, m - start) for start in range(0, m, _CHUNK)]


def serial_gaussian_zeta(cov, d, haar) -> tuple[float, float]:
    """(estimate, std_error) of ``gaussian_zeta(cov, d, haar)``, computed serially."""
    if is_scalar_identity(cov):
        return 0.0, 0.0
    gen = RngStream(haar.seed, (0,)).generator()
    s = cov.sigma
    single = np.concatenate([
        _serial_pair_values(np.broadcast_to(s, (k, d, d)), einsum_conjugate(_serial_haar(d, k, gen), s), d)
        for k in _chunk_sizes(haar.m)
    ])
    estimate = gaussian_pair_term(cov, cov, d) - single.mean()
    return float(estimate), math.sqrt(single.var() / haar.m)


def three_term_gaussian_zeta(cov, d, haar) -> tuple[float, float]:
    """(estimate, std_error) of det(2 Sigma/d + I)^(-1/2) + E_double - 2 E_single.

    E_double averages over m independent pairs (H1, H2), E_single over m
    further draws H, all from ``RngStream(haar.seed, (0,))``.
    """
    if is_scalar_identity(cov):
        return 0.0, 0.0
    gen = RngStream(haar.seed, (0,)).generator()
    s = cov.sigma
    sizes = _chunk_sizes(haar.m)
    double = []
    for k in sizes:
        h1 = _serial_haar(d, k, gen)
        h2 = _serial_haar(d, k, gen)
        double.append(_serial_pair_values(einsum_conjugate(h1, s), einsum_conjugate(h2, s), d))
    single = []
    for k in sizes:
        h = _serial_haar(d, k, gen)
        single.append(_serial_pair_values(np.broadcast_to(s, (k, d, d)), einsum_conjugate(h, s), d))
    double, single = np.concatenate(double), np.concatenate(single)
    estimate = gaussian_pair_term(cov, cov, d) + double.mean() - 2.0 * single.mean()
    std_error = math.sqrt(double.var() / haar.m + 4.0 * single.var() / haar.m)
    return float(estimate), std_error
