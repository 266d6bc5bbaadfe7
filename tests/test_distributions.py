import math

import numpy as np
import pytest

from spheresym import RngStream, run_test
from spheresym.distributions import (
    AngularSymmetric,
    Contaminated,
    FourComponentMixture,
    Gaussian,
    LpSymmetric,
    SPIKE_LIMIT,
    Spiked,
    SphericalT,
    Subsample,
    describe,
    sample,
)


def test_gaussian_validation_and_covariance():
    with pytest.raises(ValueError):
        Gaussian(d=0)
    with pytest.raises(ValueError):
        Gaussian(d=3, rho=1.0)
    with pytest.raises(ValueError):
        Gaussian(d=3, sigma=np.eye(2))
    cov = Gaussian(d=3, rho=0.5).covariance()
    assert np.allclose(cov, 0.5 * np.eye(3) + 0.5, atol=1e-15)
    assert np.array_equal(Gaussian(d=2).covariance(), np.eye(2))


def test_gaussian_refuses_rho_with_sigma():
    with pytest.raises(ValueError, match="give rho or sigma, not both"):
        Gaussian(d=2, rho=0.5, sigma=np.eye(2))
    assert Gaussian(d=2, rho=0.0, sigma=np.eye(2)).rho == 0.0


def test_gaussian_rho_zero_moments():
    s = sample(Gaussian(d=4), 50_000, RngStream(0))
    emp = s.data.T @ s.data / len(s.data)
    assert np.abs(emp - np.eye(4)).max() < 0.05


def test_gaussian_equicorrelation_moments():
    s = sample(Gaussian(d=3, rho=0.5), 100_000, RngStream(1))
    emp = s.data.T @ s.data / len(s.data)
    assert np.abs(emp - Gaussian(d=3, rho=0.5).covariance()).max() < 0.05


def test_gaussian_custom_sigma_moments():
    sigma = np.array([[4.0, 1.0], [1.0, 1.0]])
    s = sample(Gaussian(d=2, sigma=sigma), 100_000, RngStream(2))
    emp = s.data.T @ s.data / len(s.data)
    assert np.abs(emp - sigma).max() < 0.1


def test_spherical_t_validation():
    with pytest.raises(ValueError):
        SphericalT(d=2, nu=0.5)


@pytest.mark.parametrize("nu", [math.inf, math.nan])
def test_spherical_t_refuses_a_nu_that_is_not_finite(nu):
    with pytest.raises(ValueError, match="nu must be finite and >= 1"):
        SphericalT(d=3, nu=nu)


def test_lp_inf_norm_in_band():
    spec = LpSymmetric(d=6, p=math.inf)
    x = sample(spec, 5000, RngStream(3)).data
    sup = np.abs(x).max(axis=1)
    assert np.all(sup >= 9.0) and np.all(sup <= 10.0)


def test_lp_one_norm_in_band():
    spec = LpSymmetric(d=6, p=1)
    x = sample(spec, 5000, RngStream(4)).data
    l1 = np.abs(x).sum(axis=1)
    assert np.all(l1 >= 9.0 - 1e-9) and np.all(l1 <= 10.0 + 1e-9)


def test_lp_validation():
    with pytest.raises(ValueError):
        LpSymmetric(d=3, p=2)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        LpSymmetric(d=0, p=1)


def test_angular_symmetric_radius_regions():
    x = sample(AngularSymmetric(), 20_000, RngStream(5)).data
    r = np.linalg.norm(x, axis=1)
    u = x / r[:, None]
    theta = np.where(
        u[:, 0] * u[:, 1] > 0,
        10.0,
        np.where(u[:, 2] * u[:, 3] * u[:, 4] > 0, 50.0, 100.0),
    )
    assert np.all(r > 0) and np.all(r < theta)
    # all three radius caps occur
    assert {10.0, 50.0, 100.0} <= set(np.unique(theta))
    with pytest.raises(ValueError):
        AngularSymmetric(d=4)


def test_mixture_means_and_dimension():
    x = sample(FourComponentMixture(), 100_000, RngStream(6)).data
    assert x.shape[1] == 5
    # overall mean is zero; mean of |x1 * x3| component signs balanced
    assert np.abs(x.mean(axis=0)).max() < 0.05
    # coordinates 1,3,5 always have mean component +-1 -> E[x_0^2] = 2
    assert x[:, 0].var() == pytest.approx(2.0, abs=0.05)
    with pytest.raises(ValueError):
        FourComponentMixture(d=4)


# 3 ** (1293 / 2) is past float64's largest value, about 1.8e308
@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 1293.0])
def test_spiked_refuses_a_gamma_whose_spike_scale_is_not_finite(gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        Spiked(d=3, gamma=gamma)


def test_spiked_refuses_a_spike_scale_whose_draws_would_overflow_a_row_norm():
    # At d = 3 the largest accepted gamma is 2 log(SPIKE_LIMIT) / log(3) = 641.880...
    assert SPIKE_LIMIT == pytest.approx(1.3408e153, rel=1e-4)
    x = sample(Spiked(d=3, gamma=641.88), 1000, RngStream(9)).data
    assert np.isfinite((x * x).sum(axis=1)).all()
    for gamma in (641.881, 642.0, 1000.0):  # 3 ** 500 is finite, about 3.6e238
        with pytest.raises(ValueError, match="row norms would overflow float64"):
            Spiked(d=3, gamma=gamma)


def test_spiked_leading_variance():
    spec = Spiked(d=32, gamma=1.0)
    top = []
    for r in range(50):
        x = sample(spec, 10_000, RngStream(7, (r,))).data
        top.append(x[:, 0].var())
    assert np.mean(top) == pytest.approx(32.0, rel=0.02)
    x = sample(Spiked(d=8, gamma=0.0), 20_000, RngStream(8)).data
    assert x[:, 0].var() == pytest.approx(1.0, abs=0.05)


def test_contaminated_validation_and_shortcuts():
    f = Gaussian(d=3)
    g = Gaussian(d=3, rho=0.5)
    with pytest.raises(ValueError):
        Contaminated(1.5, f, g)
    with pytest.raises(ValueError):
        Contaminated(0.5, f, Gaussian(d=2))
    # delta = 0 and delta = 1 reproduce the pure component bit for bit
    assert np.array_equal(
        sample(Contaminated(0.0, f, g), 100, RngStream(9)).data,
        sample(f, 100, RngStream(9)).data,
    )
    assert np.array_equal(
        sample(Contaminated(1.0, f, g), 100, RngStream(9)).data,
        sample(g, 100, RngStream(9)).data,
    )


def test_contaminated_mixing_fraction():
    f = Gaussian(d=1, sigma=np.array([[1e-6]]))
    g = Gaussian(d=1, sigma=np.array([[1e6]]))
    x = sample(Contaminated(0.25, f, g), 40_000, RngStream(10)).data
    frac = float((np.abs(x[:, 0]) > 1.0).mean())
    assert frac == pytest.approx(0.25, abs=0.01)


def test_describe_round_trip_strings():
    assert describe(Gaussian(d=5, rho=0.3)) == "gaussian(rho=0.3,d=5)"
    assert describe(SphericalT(d=2, nu=1)) == "t(nu=1,d=2)"
    assert describe(LpSymmetric(d=3, p=math.inf)) == "lp(p=inf,d=3)"
    assert describe(AngularSymmetric()) == "angular(d=5)"
    assert describe(FourComponentMixture()) == "mixture4(d=5)"
    assert describe(Spiked(d=16, gamma=0.5)) == "spiked(gamma=0.5,d=16)"
    assert (
        describe(Contaminated(0.25, Gaussian(d=2), Gaussian(d=2, rho=0.5)))
        == "contaminated(delta=0.25,f=gaussian(rho=0.0,d=2),g=gaussian(rho=0.5,d=2))"
    )
    assert describe(Subsample(np.zeros((3, 2)), "data.csv")) == "subsample(data.csv)"


def test_subsample_draws_rows_without_replacement():
    data = np.arange(30.0).reshape(10, 3)
    spec = Subsample(data, "rows")
    assert spec.d == 3
    drawn = sample(spec, 10, RngStream(4, (1, 2))).data
    rows = RngStream(4, (1, 2)).generator().choice(10, size=10, replace=False)
    assert np.array_equal(drawn, data[rows])
    assert sorted(drawn[:, 0]) == list(data[:, 0])  # each row exactly once


def test_sample_determinism_and_validation():
    spec = SphericalT(d=3, nu=2)
    a = sample(spec, 64, RngStream(11)).data
    b = sample(spec, 64, RngStream(11)).data
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample(spec, 0, RngStream(11))


@pytest.mark.slow
def test_level_holds_under_cauchy():
    # heavy tails must not inflate the rejection rate
    spec = SphericalT(d=3, nu=1)
    rejections = 0
    reps = 500
    for r in range(reps):
        rng = RngStream(12, (r,))
        s = sample(spec, 30, rng.child(0))
        rejections += run_test(s, rng.child(1), B=200).reject
    assert rejections / reps <= 0.08
