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


def _masked_weiszfeld(x, tol=1e-8, max_iter=10_000):
    """The Weiszfeld iteration with boolean-mask copies on every step, the
    reference for ``spatial_median``'s unmasked step; also reports whether
    any step had rows at the iterate."""
    n = x.shape[0]
    theta = x.mean(axis=0)
    anchor_eps = 1e-12 * max(1.0, float(np.abs(x).max()))
    diff = x - theta
    dist = np.linalg.norm(diff, axis=1)
    anchored = False
    for it in range(1, max_iter + 1):
        at_anchor = dist < anchor_eps
        eta = int(at_anchor.sum())
        away = ~at_anchor
        anchored |= eta > 0
        if eta == n:
            return theta, True, it, float(dist.sum()), anchored
        w = 1.0 / dist[away]
        r = float(np.linalg.norm((diff[away] * w[:, None]).sum(axis=0)))
        t_map = (x[away] * w[:, None]).sum(axis=0) / w.sum()
        if eta == 0:
            theta = t_map
        else:
            if r <= eta:
                return theta, True, it, float(dist.sum()), anchored
            lam = eta / r
            theta = (1.0 - lam) * t_map + lam * theta
        diff = x - theta
        dist = np.linalg.norm(diff, axis=1)
        grad = -diff / np.maximum(dist, anchor_eps)[:, None]
        if np.linalg.norm(grad.sum(axis=0)) <= tol:
            return theta, True, it, float(dist.sum()), anchored
    return theta, False, max_iter, float(dist.sum()), anchored


def test_spatial_median_same_bits_as_the_masked_iteration():
    rng = np.random.default_rng(20)
    anchored = 0
    for case in range(60):
        n, d = int(rng.integers(2, 3001)), int(rng.integers(1, 41))
        scale = 10.0 ** rng.uniform(-3, 3)
        x = scale * (rng.standard_normal((n, d)) + rng.standard_normal(d))
        if case % 4 == 1:
            x[rng.random(n) < 0.8] = x[0]  # most rows coincide: the iterate lands on them
        elif case % 4 == 2:
            x = np.asfortranarray(x)
        elif case % 4 == 3:
            x = np.repeat(x, 2, axis=0)[::2]  # a strided view
        point, converged, n_iter, objective, hit = _masked_weiszfeld(x)
        res = spatial_median(Sample(x))
        assert res.point.tobytes() == point.tobytes(), case
        assert (res.converged, res.n_iter) == (converged, n_iter), case
        assert np.float64(res.objective).tobytes() == np.float64(objective).tobytes(), case
        anchored += hit
    assert anchored >= 10  # the rows-at-the-iterate branch ran


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
