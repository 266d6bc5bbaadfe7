import numpy as np
import pytest

from spheresym import (
    CovSpec,
    HaarConfig,
    RngStream,
    Sample,
    augment,
    build_gram,
    gaussian_pair_term,
    gaussian_zeta,
    mc_zeta,
    sample_haar_orthogonal,
    zeta_hat,
)
from spheresym.distributions import Contaminated, Gaussian
from spheresym.oracle import _haar_batch, is_scalar_identity
from oracles import quadrature_gaussian_zeta_2d


def test_covspec_validation():
    with pytest.raises(ValueError):
        CovSpec(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CovSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        CovSpec(np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least 1 x 1"):
        CovSpec(np.zeros((0, 0)))


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
    h = sample_haar_orthogonal(3, RngStream(1))
    c1 = CovSpec(h @ s1.sigma @ h.T)
    c2 = CovSpec(h @ s2.sigma @ h.T)
    assert gaussian_pair_term(c1, c2, 3) == pytest.approx(gaussian_pair_term(s1, s2, 3), rel=1e-12)


def test_haar_orthogonality():
    for d in (1, 2, 5, 10):
        h = sample_haar_orthogonal(d, RngStream(2, (d,)))
        assert np.linalg.norm(h @ h.T - np.eye(d)) < 1e-10


def test_haar_d1_sign_flip():
    draws = [sample_haar_orthogonal(1, RngStream(3, (i,)))[0, 0] for i in range(100)]
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_haar_first_moment_zero():
    h = _haar_batch(3, 100_000, RngStream(4).generator())
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


def test_gaussian_zeta_rotation_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T
    h = sample_haar_orthogonal(3, RngStream(6))
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
        aug = augment(s, rng.child(1))
        values[r] = zeta_hat(aug, build_gram(aug)).value
    frac = float((np.abs(values - zeta) > eps).mean())
    bound = 2 * np.exp(-n * eps**2 / 32)
    assert frac <= bound + 3 * np.sqrt(bound * (1 - bound) / reps) + 1e-12


def test_haar_config_validation():
    with pytest.raises(ValueError):
        HaarConfig(m=0)
