import math

import numpy as np
import pytest

from spheresym import (
    AugmentedSample,
    GramCache,
    RngStream,
    Sample,
    augment,
    build_gram,
    critical_value,
    exact_pvalue,
    mc_pvalue,
    run_test,
    swap_statistic,
    zeta_hat,
)
from spheresym import calibrate, core
from spheresym.calibrate import ENUM_LIMIT, cutoff_bound
from oracles import direct_exact_pvalue, naive_exact_pvalue, naive_resampled_zeta


def _random_cache(seed, n=10, d=3):
    s = Sample(np.random.default_rng(seed).standard_normal((n, d)))
    aug = augment(s, RngStream(seed, (1,)))
    return aug, build_gram(aug)


def test_swap_mask_validation():
    _, cache = _random_cache(0, n=3)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        swap_statistic(cache, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        swap_statistic(cache, np.array([[1.0, 2.0, -1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        swap_statistic(cache, np.ones((2, 2, 3)))


def test_resample_identity_and_full_swap_reproduce_statistic():
    aug, cache = _random_cache(0)
    stat = zeta_hat(aug, cache).value
    assert swap_statistic(cache, np.ones(10)) == stat
    assert swap_statistic(cache, -np.ones(10)) == pytest.approx(stat, abs=1e-14)


def test_resample_hand_value_n2():
    original = np.array([[1.0, 0.0], [-1.0, 0.0]])
    variant = np.array([[0.0, 1.0], [0.0, -1.0]])
    aug = AugmentedSample(original=Sample(original), variant=variant)
    cache = build_gram(aug)
    got = swap_statistic(cache, np.array([1.0, -1.0]))
    expected = 2.0 * math.exp(-0.5) - 2.0 * math.exp(-1.0)  # ~ +0.477297
    assert got == pytest.approx(expected, abs=1e-12)


def test_resample_matches_naive_recomputation():
    aug, cache = _random_cache(1, n=8)
    gen = np.random.default_rng(2)
    for _ in range(20):
        bits = gen.integers(0, 2, size=8)
        got = swap_statistic(cache, 2.0 * bits - 1.0)
        want = naive_resampled_zeta(aug.original.data, aug.variant, bits)
        assert got == pytest.approx(want, abs=1e-12)


def test_resample_complement_equality():
    _, cache = _random_cache(3, n=12)
    gen = np.random.default_rng(4)
    for _ in range(20):
        signs = 2.0 * gen.integers(0, 2, size=12) - 1.0
        a = swap_statistic(cache, signs)
        b = swap_statistic(cache, -signs)
        assert a == pytest.approx(b, abs=1e-12)


def test_resample_length_mismatch():
    _, cache = _random_cache(5)
    with pytest.raises(ValueError):
        swap_statistic(cache, np.ones(5))


def test_swap_statistic_refuses_values_outside_the_range(monkeypatch):
    # entries of a real G lie in [-2, 2]; a corrupt tile must fail loudly,
    # for the observed value and for every resample, in run_test's p-values too
    def corrupt_tile(cache, rows, cols, out=None, scratch=None):
        g = np.full((cache.n, cache.n), 3.0)
        np.fill_diagonal(g, 0.0)
        return g[rows, cols]

    cache = GramCache(original=np.ones((4, 1)), variant=-np.ones((4, 1)))
    monkeypatch.setattr(core, "gram_tile", corrupt_tile)
    with pytest.raises(ValueError, match=r"out of range \[-2, 2\]: 3"):
        swap_statistic(cache, np.ones(4))
    with pytest.raises(ValueError, match="out of range"):
        swap_statistic(cache, np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="out of range"):
        mc_pvalue(cache, 10, RngStream(0))
    with pytest.raises(ValueError, match="out of range"):
        exact_pvalue(cache)
    # rows that are not finite give NaN values, refused the same way
    monkeypatch.undo()
    cache = GramCache(original=np.array([[1.0], [np.nan], [0.5]]), variant=np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"out of range \[-2, 2\]: nan"):
        mc_pvalue(cache, 10, RngStream(0))


def test_exact_pvalue_floor_from_swap_symmetry():
    _, cache = _random_cache(6, n=2)
    out = exact_pvalue(cache)
    assert out.p_value >= 0.5
    for seed in range(3):
        _, cache = _random_cache(seed + 10, n=7)
        out = exact_pvalue(cache)
        assert out.p_value >= 2.0 ** (1 - 7)


def test_exact_pvalue_matches_naive_enumeration():
    aug, cache = _random_cache(7, n=8)
    out = exact_pvalue(cache)
    assert out.p_value == pytest.approx(
        naive_exact_pvalue(aug.original.data, aug.variant), abs=1e-12
    )
    assert out.method == "exact"


def test_exact_pvalue_refuses_large_n():
    _, cache = _random_cache(8, n=ENUM_LIMIT + 1)
    with pytest.raises(ValueError, match=f"n <= {ENUM_LIMIT} "):
        exact_pvalue(cache)


def _structured_cache(seed, n, d, rows):
    """Cache whose data has structural ties: repeated rows or a zero row."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    if rows == "repeated":
        x[1] = x[0]
        x[n - 1] = x[0]
    else:
        x[n // 2] = 0.0
    return build_gram(augment(Sample(x), RngStream(seed, (1,))))


_EXACT_CASES = [(n, d, None) for n in (2, 3, 5, 8, 11, 16) for d in (1, 2, 10)] + [
    (8, 2, "repeated"), (11, 10, "repeated"), (5, 1, "zero"), (11, 2, "zero"),
]


@pytest.mark.parametrize("seed, n, d, rows", [(40 + i, *case) for i, case in enumerate(_EXACT_CASES)])
def test_exact_pvalue_equals_direct_enumeration(seed, n, d, rows):
    cache = _random_cache(seed, n=n, d=d)[1] if rows is None else _structured_cache(seed, n, d, rows)
    assert exact_pvalue(cache).p_value == direct_exact_pvalue(cache)


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_signed_sums_match_sign_table_product(k):
    w = np.random.default_rng(k).standard_normal((k, 5))
    want = calibrate._sign_table(k) @ w
    np.testing.assert_allclose(calibrate._signed_sums(w), want, rtol=0, atol=1e-13)
    base = np.random.default_rng(k + 1).standard_normal(5)
    branches = np.array(list(calibrate._branch_sums(w, base)))
    np.testing.assert_allclose(branches, want + base, rtol=0, atol=1e-13)


def _record_tiles(monkeypatch):
    """Collect the shape of every tile the exact enumeration counts."""
    shapes = []
    count = calibrate._count_ties_or_exceed

    def recording(values, obs):
        shapes.append(values.shape)
        return count(values, obs)

    monkeypatch.setattr(calibrate, "_count_ties_or_exceed", recording)
    return shapes


def test_exact_pvalue_independent_of_tile_budget(monkeypatch):
    _, cache = _random_cache(16, n=16, d=2)
    want = exact_pvalue(cache).p_value
    monkeypatch.setattr(calibrate, "_TILE_BYTES", 4096)
    shapes = _record_tiles(monkeypatch)
    assert exact_pvalue(cache).p_value == want
    assert len(shapes) > 1
    assert all(9 * r * c <= 4096 for r, c in shapes)
    assert sum(r * c for r, c in shapes) == 1 << 15


def test_exact_pvalue_at_enum_limit_within_tile_budget(monkeypatch):
    _, cache = _random_cache(17, n=ENUM_LIMIT, d=10)
    shapes = _record_tiles(monkeypatch)
    out = exact_pvalue(cache)
    assert all(9 * r * c <= calibrate._TILE_BYTES for r, c in shapes)
    assert sum(r * c for r, c in shapes) == 1 << (ENUM_LIMIT - 1)
    k = out.p_value * (1 << ENUM_LIMIT)
    assert k == int(k) and k % 2 == 0 and k >= 2


def test_mc_pvalue_bounds_and_grid():
    _, cache = _random_cache(9)
    B = 37
    out = mc_pvalue(cache, B, RngStream(1))
    assert 1.0 / (B + 1) <= out.p_value <= 1.0
    k = round(out.p_value * (B + 1))
    assert out.p_value == pytest.approx(k / (B + 1), abs=1e-15)


def test_mc_pvalue_is_one_for_degenerate_pairs():
    data = np.random.default_rng(10).standard_normal((6, 2))
    aug = AugmentedSample(original=Sample(data), variant=data.copy())
    cache = build_gram(aug)
    out = mc_pvalue(cache, 100, RngStream(2))
    assert out.p_value == 1.0


def test_draw_signs_are_the_mask_stream_as_signs():
    from spheresym.calibrate import _draw_signs

    bits = RngStream(5, (2,)).generator().integers(0, 2, size=(70, 33))
    signs = _draw_signs(33, 70, RngStream(5, (2,)))
    assert signs.dtype == np.float64
    assert np.array_equal(signs, 2.0 * bits - 1.0)


def test_mc_pvalue_deterministic_and_validates_B():
    _, cache = _random_cache(11)
    a = mc_pvalue(cache, 50, RngStream(5))
    b = mc_pvalue(cache, 50, RngStream(5))
    assert a == b
    with pytest.raises(ValueError):
        mc_pvalue(cache, 0, RngStream(5))


def test_mc_pvalue_monotone_in_statistic():
    # with the resample pool held fixed, a larger observed value can only
    # lower the exceedance count
    _, cache = _random_cache(12, n=15)
    from spheresym.calibrate import _draw_signs

    values = swap_statistic(cache, _draw_signs(15, 200, RngStream(6)))
    stats = np.sort(values)[[20, 100, 180]]
    ps = [(int((values >= s).sum()) + 1) / 201 for s in stats]
    assert ps[0] >= ps[1] >= ps[2]


def test_critical_value_quantile_and_bound():
    _, cache = _random_cache(13, n=21)
    from spheresym.calibrate import _draw_signs

    values = swap_statistic(cache, _draw_signs(21, 400, RngStream(7)))
    got = critical_value(cache, 0.05, 400, RngStream(7))
    rank = math.ceil(400 * 0.95) - 1
    assert got == np.sort(values)[rank]
    assert got <= cutoff_bound(21, 0.05)
    # alpha -> 1 returns the smallest resampled value
    assert critical_value(cache, 0.999, 400, RngStream(7)) == values.min()


def test_cutoff_bound_example():
    assert cutoff_bound(41, 0.05) == pytest.approx(1.0)


def test_run_test_deterministic_and_complete():
    s = Sample(np.random.default_rng(14).standard_normal((20, 4)))
    a = run_test(s, RngStream(21), alpha=0.05, B=100)
    b = run_test(s, RngStream(21), alpha=0.05, B=100)
    assert a == b
    assert a.method == "monte-carlo"
    assert a.B == 100 and a.seed == 21 and a.n == 20 and a.d == 4
    assert a.reject == (a.p_value < a.alpha)
    assert a.c_alpha_bound == pytest.approx(cutoff_bound(20, 0.05))


def test_run_test_exact_mode():
    s = Sample(np.random.default_rng(15).standard_normal((8, 2)))
    out = run_test(s, RngStream(3), exact=True)
    assert out.method == "exact"
    assert out.p_value >= 2.0 ** (1 - 8)


def test_run_test_rejects_single_row():
    with pytest.raises(ValueError):
        run_test(Sample(np.zeros((1, 2))), RngStream(0))


def test_observed_statistic_ties_with_identity_mask():
    # guards the tie-counting convention: the enumeration must always count
    # the identity and the full swap
    for seed in range(5):
        aug, cache = _random_cache(seed + 30, n=9)
        obs = swap_statistic(cache, np.ones(9))
        ones = swap_statistic(cache, np.ones((1, 9)))[0]
        zeros = swap_statistic(cache, -np.ones((1, 9)))[0]
        assert obs == ones == zeros
        assert obs == zeta_hat(aug, cache).value
        g = core.gram_tile(cache, slice(0, 9), slice(0, 9))
        assert obs == pytest.approx(float(g.sum()) / (9 * 8), abs=1e-14)
