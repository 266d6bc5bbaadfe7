import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from spheresym import RngStream, Sample, augment, center, run_test, spatial_median
from spheresym.augment import _unit_rows


def test_sphere_point_has_unit_norm():
    for d in (1, 2, 7, 50):
        u = _unit_rows(1, d, RngStream(3, (d,)).generator())[0]
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_sphere_d1_is_sign_flip():
    draws = _unit_rows(200, 1, RngStream(0).generator())[:, 0]
    assert set(np.unique(draws)) == {-1.0, 1.0}
    # both signs roughly balanced
    assert 60 < sum(1 for x in draws if x > 0) < 140


def test_sphere_d3_marginals():
    u = _unit_rows(100_000, 3, RngStream(17).generator())
    # coordinate means are zero; each coordinate has variance 1/3
    se = np.sqrt(1.0 / 3.0 / len(u))
    assert np.all(np.abs(u.mean(axis=0)) < 4 * se)
    # first coordinate is uniform on [-1, 1] (Archimedes)
    ks = stats.kstest(u[:, 0], stats.uniform(loc=-1.0, scale=2.0).cdf)
    critical_1pct = 1.63 / np.sqrt(len(u))
    assert ks.statistic < critical_1pct


def test_augment_preserves_row_norms():
    rng = np.random.default_rng(5)
    s = Sample(rng.standard_normal((30, 6)) * 10)
    aug = augment(s, RngStream(1))
    no = np.linalg.norm(s.data, axis=1)
    nv = np.linalg.norm(aug.variant, axis=1)
    assert np.allclose(nv, no, rtol=1e-9)


def test_augment_zero_row_maps_to_zero():
    s = Sample(np.array([[0.0, 0.0], [1.0, 2.0]]))
    aug = augment(s, RngStream(2))
    assert np.all(aug.variant[0] == 0.0)


def test_augment_deterministic():
    s = Sample(np.random.default_rng(6).standard_normal((10, 3)))
    a1 = augment(s, RngStream(99, (4,)))
    a2 = augment(s, RngStream(99, (4,)))
    assert np.array_equal(a1.variant, a2.variant)
    a3 = augment(s, RngStream(99, (5,)))
    assert not np.array_equal(a1.variant, a3.variant)


def test_spatial_median_single_point():
    s = Sample(np.array([[2.0, -3.0, 1.0]]))
    res = spatial_median(s)
    assert np.array_equal(res.point, s.data[0])
    assert res.converged


def test_spatial_median_symmetric_set():
    v = np.array([3.0, 1.0])
    w = np.array([-1.0, 2.0])
    s = Sample(np.stack([v, -v, w, -w]))
    res = spatial_median(s, tol=1e-10)
    assert np.linalg.norm(res.point) < 1e-8


def test_spatial_median_collinear_is_univariate_median():
    s = Sample(np.array([[1.0, 0.0], [2.0, 0.0], [10.0, 0.0]]))
    res = spatial_median(s, tol=1e-10)
    assert np.allclose(res.point, [2.0, 0.0], atol=1e-7)


def test_spatial_median_translation_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 3))
    shift = np.array([5.0, -2.0, 0.5])
    tol = 1e-9
    m0 = spatial_median(Sample(x), tol=tol).point
    m1 = spatial_median(Sample(x + shift), tol=tol).point
    assert np.allclose(m1, m0 + shift, atol=2 * tol + 1e-7)


def test_spatial_median_objective_nonincreasing():
    rng = np.random.default_rng(8)
    s = Sample(rng.standard_normal((50, 4)))
    res = spatial_median(s, tol=1e-12, max_iter=200)
    # the iteration is deterministic, so a run capped at k steps ends on the k-th iterate
    obj = np.array([spatial_median(s, tol=1e-12, max_iter=k).objective
                    for k in range(1, res.n_iter + 1)])
    assert res.n_iter > 1
    assert np.all(np.diff(obj) <= 1e-10)
    assert obj[-1] == res.objective


def test_spatial_median_anchor_at_data_point():
    # heavy multiplicity at the origin: the anchor is the median
    pts = np.vstack([np.zeros((5, 2)), [[1.0, 0.0]], [[-1.0, 0.0]], [[0.0, 1.0]]])
    res = spatial_median(Sample(pts), tol=1e-10)
    assert np.linalg.norm(res.point) < 1e-8
    assert res.converged


def test_spatial_median_rejects_bad_tol():
    with pytest.raises(ValueError):
        spatial_median(Sample(np.zeros((2, 2))), tol=0.0)


def test_center_none_is_identity():
    s = Sample(np.random.default_rng(9).standard_normal((5, 2)))
    assert center(s, "none") is s


def test_augment_rejects_overflowing_row_norms():
    s = Sample(np.random.default_rng(11).standard_normal((20, 10)) * 1e160)
    with pytest.raises(ValueError, match="overflow.*rescale"):
        augment(s, RngStream(0))
    with pytest.raises(ValueError, match="overflow.*rescale"):
        run_test(s, RngStream(0), B=50)


def test_center_spatial_median_recenters_shifted_cloud():
    rng = np.random.default_rng(10)
    s = Sample(rng.standard_normal((200, 3)) + np.array([4.0, -1.0, 2.0]))
    tol = 1e-9
    c = center(s, "spatial-median")
    res = spatial_median(c, tol=tol)
    assert np.linalg.norm(res.point) < 1e-6


def test_center_unknown_mode():
    with pytest.raises(ValueError):
        center(Sample(np.zeros((2, 2))), "midpoint")


def test_center_warns_when_median_not_converged(monkeypatch):
    s = Sample(np.random.default_rng(12).standard_normal((50, 3)) + 5.0)
    module = sys.modules["spheresym.augment"]  # the package's ``augment`` is the function
    with monkeypatch.context() as patch:
        patch.setattr(module, "spatial_median", lambda sample: spatial_median(sample, max_iter=1))
        with pytest.warns(RuntimeWarning, match="did not converge in 1 iterations"):
            center(s, "spatial-median")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center(s, "spatial-median")
