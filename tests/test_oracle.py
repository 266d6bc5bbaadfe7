import sys
import warnings

import numpy as np
import pytest

from spheresym import (
    CovSpec,
    HaarConfig,
    RngStream,
    Sample,
    augment,
    gaussian_pair_term,
    gaussian_zeta,
    mc_zeta,
    swap_statistic,
)
from spheresym import oracle, threads
from spheresym.distributions import Contaminated, Gaussian
from spheresym.oracle import (
    _conjugate,
    _haar_from_normals,
    _merged_mean_var,
    _pair_values,
    is_scalar_identity,
)
from oracles import (
    _serial_haar,
    einsum_conjugate,
    quadrature_double_2d,
    quadrature_gaussian_zeta_2d,
    quadrature_single_2d,
    serial_gaussian_zeta,
    three_term_gaussian_zeta,
)


def _haar(d, m, rng):
    return _haar_from_normals(rng.generator().standard_normal((m, d, d)))


def test_covspec_validation():
    with pytest.raises(ValueError):
        CovSpec(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CovSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        CovSpec(np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least 1 x 1"):
        CovSpec(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_covspec_refuses_non_finite_entries(bad):
    # a NaN used to be refused as "not symmetric", and an inf accepted, with
    # gaussian_zeta then returning (nan, nan)
    with pytest.raises(ValueError, match="entries must be finite"):
        CovSpec(np.array([[bad, 0.0], [0.0, 1.0]]))


# diag(1e308, 1) overflows the determinant term; the second keeps that term
# finite, but Sigma + H Sigma H^T overflows in the blocks.
@pytest.mark.parametrize(
    "sigma", [np.diag([1e308, 1.0]), 8e307 * np.ones((2, 2)) + 1e305 * np.eye(2)], ids=["term", "block"]
)
def test_gaussian_zeta_refuses_covariances_that_overflow(sigma):
    cov = CovSpec(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64; rescale"):
            gaussian_zeta(cov, 2, HaarConfig(m=4_001, seed=0))


def test_pair_term_refuses_overflow():
    cov = CovSpec(np.diag([1e308, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64; rescale"):
            gaussian_pair_term(cov, cov, 2)


# PSD covariances so large that adding I to (Sigma1 + Sigma2)/d is lost to
# rounding: wholly from 1e16 (8e307 + 1 == 8e307), which leaves the matrix
# exactly singular, and in part at 1e12 and 1e15, where Cholesky's error bound
# d eps cond reads 8.9e-4 and 0.92 (slogdet's value was 3e-5 and 3.3% off)
@pytest.mark.parametrize("scale", [1e12, 1e15, 1e16, 8e307])
@pytest.mark.parametrize("entry", ["pair_term", "gaussian_zeta"])
def test_refuses_covariances_whose_identity_is_lost_to_rounding(entry, scale):
    cov = CovSpec(scale * np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lost to rounding beside entries this large; rescale"):
            if entry == "pair_term":
                gaussian_pair_term(cov, cov, 2)
            else:
                gaussian_zeta(cov, 2, HaarConfig(m=4_001, seed=0))


def test_pair_term_evaluates_a_scale_whose_identity_is_kept():
    # d eps cond = 8.9e-7 at 1e9, under the 1e-6 bound; det(Sigma + I) = 2e9 + 1
    cov = CovSpec(1e9 * np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian_pair_term(cov, cov, 2)
    assert got == pytest.approx((2e9 + 1) ** -0.5, rel=1e-6)


def test_gaussian_zeta_finite_at_large_finite_scale():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = gaussian_zeta(CovSpec(np.diag([1e300, 1.0])), 2)
    assert np.isfinite(est) and est >= 0.0 and np.isfinite(se)


def test_pair_term_identity_covariances():
    for d in (1, 2, 5, 20):
        eye = CovSpec(np.eye(d))
        assert gaussian_pair_term(eye, eye, d) == pytest.approx((1 + 2 / d) ** (-d / 2), rel=1e-12)
    eye2 = CovSpec(np.eye(2))
    assert gaussian_pair_term(eye2, eye2, 2) == pytest.approx(0.5, abs=1e-14)


def test_pair_term_point_masses():
    zero = CovSpec(np.zeros((3, 3)))
    assert gaussian_pair_term(zero, zero, 3) == pytest.approx(1.0, abs=1e-14)


def test_pair_term_diagonal_example():
    s1 = CovSpec(np.diag([4.0, 1.0]))
    s2 = CovSpec(np.diag([1.0, 4.0]))
    assert gaussian_pair_term(s1, s2, 2) == pytest.approx(1.0 / 3.5, rel=1e-12)


def test_pair_term_symmetric_and_conjugation_invariant():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    s1 = CovSpec(a @ a.T)
    s2 = CovSpec(b @ b.T)
    assert gaussian_pair_term(s1, s2, 3) == pytest.approx(gaussian_pair_term(s2, s1, 3), rel=1e-13)
    h = _haar(3, 1, RngStream(1))[0]
    c1 = CovSpec(h @ s1.sigma @ h.T)
    c2 = CovSpec(h @ s2.sigma @ h.T)
    assert gaussian_pair_term(c1, c2, 3) == pytest.approx(gaussian_pair_term(s1, s2, 3), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_haar_matches_lapack_qr_with_sign_fix(d):
    want = _serial_haar(d, 3_000, RngStream(31, (d,)).generator())
    got = _haar_from_normals(RngStream(31, (d,)).generator().standard_normal((3_000, d, d)))
    assert np.abs(got - want).max() <= 1e-12


def _nearly_parallel_columns(d, cond, k, seed):
    """k matrices U diag(1, 1/cond, ..., 1/cond) P with P orthogonal and P e1 = 1/sqrt(d).

    Every column is U e1 / sqrt(d) plus O(1/cond): the columns are nearly
    parallel, and each matrix's condition number is ``cond``.
    """
    u = _serial_haar(d, k, np.random.default_rng(seed))
    w = np.eye(d)[0] - 1.0 / np.sqrt(d)
    p = np.eye(d) - 2.0 * np.outer(w, w) / (w @ w)  # the reflection swapping e1 and 1/sqrt(d)
    return u * np.r_[1.0, np.full(d - 1, 1.0 / cond)] @ p


@pytest.mark.parametrize("cond", [1e8, 1e12])
@pytest.mark.parametrize("d", [2, 5, 10])
def test_haar_map_stays_orthogonal_on_nearly_parallel_columns(d, cond):
    a = _nearly_parallel_columns(d, cond, 500, 32 + d)
    assert np.linalg.cond(a) == pytest.approx(np.full(len(a), cond), rel=1e-2)
    h = _haar_from_normals(a.copy())
    assert np.abs(h.transpose(0, 2, 1) @ h - np.eye(d)).max() <= 1e-13
    # Q^T A is R: upper triangular with a positive diagonal, and Q R gives A back.
    r = h.transpose(0, 2, 1) @ a
    scale = np.linalg.norm(a, axis=(1, 2))
    assert (np.abs(np.tril(r, -1)).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert (np.einsum("kii->ki", r) > 0).all()
    assert (np.linalg.norm(a - h @ np.triu(r), axis=(1, 2)) <= 1e-13 * scale).all()


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_pair_values_match_slogdet(d):
    sigma = _random_cov(d, 33 + d).sigma
    conj = _conjugate(_haar(d, 3_000, RngStream(34, (d,))), sigma)
    _, logdet = np.linalg.slogdet((sigma + conj) / d + np.eye(d))
    want = np.exp(-0.5 * logdet)
    got = np.empty(len(conj))
    _pair_values(got, sigma, conj, d)
    assert np.abs(got / want - 1.0).max() <= 1e-14


def test_haar_orthogonality():
    for d in (1, 2, 5, 10):
        h = _haar(d, 1, RngStream(2, (d,)))[0]
        assert np.linalg.norm(h @ h.T - np.eye(d)) < 1e-10


def test_haar_d1_sign_flip():
    draws = _haar(1, 100, RngStream(3))[:, 0, 0]
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_haar_first_moment_zero():
    h = _haar(3, 100_000, RngStream(4))
    # entries of a Haar matrix have variance 1/d
    se = np.sqrt(1.0 / 3.0 / len(h))
    assert abs(h[:, 0, 0].mean()) < 4 * se


def test_scalar_identity_detection():
    assert is_scalar_identity(CovSpec(3.7 * np.eye(4)))
    assert not is_scalar_identity(CovSpec(np.diag([1.0, 1.0001])))


def test_gaussian_zeta_zero_for_scalar_identity():
    for c in (0.1, 1.0, 10.0):
        est, se = gaussian_zeta(CovSpec(c * np.eye(6)), 6)
        assert est == 0.0 and se == 0.0


def test_gaussian_zeta_matches_2d_quadrature():
    sigma = np.diag([4.0, 1.0])
    est, se = gaussian_zeta(CovSpec(sigma), 2, HaarConfig(m=40_000, seed=7))
    want = quadrature_gaussian_zeta_2d(sigma, k=120)
    assert abs(est - want) < 3 * se


@pytest.mark.parametrize("sigma", [[[4.0, 0.0], [0.0, 1.0]], [[2.0, 0.7], [0.7, 0.5]]])
def test_quadrature_double_integral_equals_single_integral(sigma):
    # Conjugating by H1 turns the double integral into the single one, since
    # H1^T H2 is Haar; gaussian_zeta estimates only the single one.
    single = quadrature_single_2d(np.array(sigma), k=120)
    assert quadrature_double_2d(np.array(sigma), k=120) == pytest.approx(single, rel=1e-12, abs=0)


def test_gaussian_zeta_matches_three_term_form():
    cov = _random_cov(5, 28)
    est, se = gaussian_zeta(cov, 5, HaarConfig(m=20_000, seed=29))
    want, wse = three_term_gaussian_zeta(cov, 5, HaarConfig(m=20_000, seed=30))
    assert abs(est - want) < 3 * np.hypot(se, wse)


def test_gaussian_zeta_rotation_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T
    h = _haar(3, 1, RngStream(6))[0]
    cfg = HaarConfig(m=40_000, seed=8)
    e1, s1 = gaussian_zeta(CovSpec(sigma), 3, cfg)
    e2, s2 = gaussian_zeta(CovSpec(h @ sigma @ h.T), 3, cfg)
    assert abs(e1 - e2) < 3 * np.hypot(s1, s2)


def test_gaussian_zeta_nonnegative():
    rng = np.random.default_rng(9)
    for trial in range(3):
        a = rng.standard_normal((4, 4))
        est, se = gaussian_zeta(CovSpec(a @ a.T), 4, HaarConfig(m=20_000, seed=trial))
        assert est >= -3 * se


def test_mc_zeta_spherical_gaussian_near_zero():
    est, se = mc_zeta(Gaussian(d=4), n_big=100, reps=100, rng=RngStream(10))
    assert abs(est) < 3 * se


def test_mc_zeta_cross_oracle_agreement():
    spec = Gaussian(d=2, sigma=np.diag([4.0, 1.0]))
    est, se = mc_zeta(spec, n_big=200, reps=100, rng=RngStream(11))
    want, wse = gaussian_zeta(CovSpec(np.diag([4.0, 1.0])), 2, HaarConfig(m=40_000, seed=12))
    assert abs(est - want) < 3 * np.hypot(se, wse)


def test_mc_zeta_contamination_identity():
    f = Gaussian(d=2, sigma=np.diag([4.0, 1.0]))
    g = Gaussian(d=2)
    est, se = mc_zeta(Contaminated(0.5, f, g), n_big=200, reps=100, rng=RngStream(13))
    zf, zse = gaussian_zeta(CovSpec(np.diag([4.0, 1.0])), 2, HaarConfig(m=40_000, seed=14))
    target = 0.25 * zf
    assert abs(est - target) < 3 * np.hypot(se, 0.25 * zse)


def test_mc_zeta_needs_two_reps_and_two_rows():
    with pytest.raises(ValueError, match="reps"):
        mc_zeta(Gaussian(d=2), n_big=10, reps=1, rng=RngStream(0))
    with pytest.raises(ValueError, match="n_big"):
        mc_zeta(Gaussian(d=2), n_big=1, reps=5, rng=RngStream(0))


def test_concentration_bound_sanity():
    # deviation probability of the statistic never exceeds the exponential
    # bound (plus binomial noise)
    spec = Gaussian(d=3, rho=0.5)
    n, reps, eps = 200, 100, 0.5
    zeta, _ = gaussian_zeta(
        CovSpec(0.5 * np.eye(3) + 0.5 * np.ones((3, 3))), 3, HaarConfig(m=20_000, seed=15)
    )
    values = np.empty(reps)
    for r in range(reps):
        rng = RngStream(16, (r,))
        from spheresym.distributions import sample

        s = sample(spec, n, rng.child(0))
        values[r] = swap_statistic(augment(s, rng.child(1)), np.ones(n))
    frac = float((np.abs(values - zeta) > eps).mean())
    bound = 2 * np.exp(-n * eps**2 / 32)
    assert frac <= bound + 3 * np.sqrt(bound * (1 - bound) / reps) + 1e-12


def test_haar_config_validation():
    with pytest.raises(ValueError):
        HaarConfig(m=0)
    with pytest.raises(ValueError, match="m must be an integer"):
        HaarConfig(m=1000.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        HaarConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        HaarConfig(seed=1.5)
    assert HaarConfig(m=np.int64(5), seed=np.int64(3)).m == 5


def _random_cov(d, seed):
    a = np.random.default_rng(seed).standard_normal((d, d))
    s = a @ a.T / d + 0.5 * np.eye(d)
    return CovSpec((s + s.T) / 2.0)


def test_conjugate_matches_einsum():
    for d in (1, 2, 5, 10):
        h = _haar(d, 500, RngStream(20, (d,)))
        sigma = _random_cov(d, d).sigma
        want = einsum_conjugate(h, sigma)
        assert np.abs(_conjugate(h, sigma) - want).max() <= 1e-14 * np.abs(want).max()


# m = 1 gives fewer draws than threads; 20_001 ends in a block of one row.
@pytest.mark.parametrize("m", [1, 3, 20_001])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_gaussian_zeta_matches_serial_einsum(d, m):
    cov = _random_cov(d, 21 + d)
    got = gaussian_zeta(cov, d, HaarConfig(m=m, seed=22))
    want = serial_gaussian_zeta(cov, d, HaarConfig(m=m, seed=22))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_gaussian_zeta_same_bits_on_one_and_two_threads():
    if threads.openblas_thread_controls() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read or set here")
    cov = _random_cov(5, 23)
    results = []
    for k in (1, 2):
        with threads.thread_limit(k):
            assert threads.blas_threads() == k
            results.append(gaussian_zeta(cov, 5, HaarConfig(m=20_001, seed=24)))
    assert results[0] == results[1]


# Blocks of 7 rows on 4 threads, switching every microsecond: thousands of
# tasks racing for the draws.  Needs no control of BLAS's thread count.
@pytest.mark.parametrize("m", [1, 3, 20_001])
@pytest.mark.parametrize("d", [2, 5, 10])
def test_gaussian_zeta_same_bits_on_one_and_four_workers(monkeypatch, d, m):
    monkeypatch.setattr(oracle, "_HAAR_BLOCK", 7)
    cov = _random_cov(d, 25 + d)
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 4):
            monkeypatch.setattr(oracle, "blas_threads", lambda: workers)
            results.append(gaussian_zeta(cov, d, HaarConfig(m=m, seed=26)))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]


def test_gaussian_zeta_std_error_near_isotropy():
    # A one-pass E[x^2] - mean^2 cancels to exactly 0 here; the standard error is ~1.2e-14,
    # below pytest's default absolute tolerance of 1e-12, hence abs=0.
    d = 10
    cov = CovSpec(np.diag([1.0 + 1e-4] + [1.0] * (d - 1)))
    _, se = gaussian_zeta(cov, d, HaarConfig(m=20_000, seed=0))
    _, want = serial_gaussian_zeta(cov, d, HaarConfig(m=20_000, seed=0))
    assert se > 0.0
    assert se == pytest.approx(want, rel=1e-6, abs=0)


def test_merged_mean_var_merges_blocks_without_cancellation():
    values = 1.0 + 1e-9 * np.random.default_rng(27).standard_normal(2 * 20_000 + 7)
    blocks = np.split(values, range(oracle._HAAR_BLOCK, len(values), oracle._HAAR_BLOCK))
    rows = np.array([(b.mean(), ((b - b.mean()) ** 2).sum()) for b in blocks])
    mean, var = _merged_mean_var(rows, len(values))
    assert mean == pytest.approx(values.mean(), rel=1e-15)
    assert var == pytest.approx(values.var(), rel=1e-9)


# 20_001 and 100_000 draws are 11 and 50 blocks: still one fan-out, so one pool.
@pytest.mark.parametrize("m", [1, 20_001, 100_000])
def test_gaussian_zeta_fans_out_once_per_call(monkeypatch, m):
    calls = []

    def counted(work, tasks, states):
        calls.append(len(tasks))
        threads.fan_out(work, tasks, states)

    monkeypatch.setattr(oracle, "fan_out", counted)
    gaussian_zeta(_random_cov(2, 35), 2, HaarConfig(m=m, seed=36))
    assert calls == [-(-m // oracle._HAAR_BLOCK)]
