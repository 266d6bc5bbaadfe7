import math

import numpy as np
import pytest

from spheresym import (
    AugmentedSample,
    RngStream,
    Sample,
    SwapMask,
    augment,
    build_gram,
    critical_value,
    exact_pvalue,
    mc_pvalue,
    resample_statistic,
    run_test,
    swap_statistic,
    zeta_hat,
)
from spheresym.calibrate import cutoff_bound
from oracles import naive_exact_pvalue, naive_resampled_zeta


def _random_cache(seed, n=10, d=3):
    s = Sample(np.random.default_rng(seed).standard_normal((n, d)))
    aug = augment(s, RngStream(seed, (1,)))
    return aug, build_gram(aug)


def test_swap_mask_validation():
    with pytest.raises(ValueError):
        SwapMask(np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        SwapMask(np.zeros((2, 2)))


def test_resample_identity_and_full_swap_reproduce_statistic():
    aug, cache = _random_cache(0)
    stat = zeta_hat(aug, cache).value
    assert resample_statistic(cache, SwapMask(np.ones(10, dtype=int))) == stat
    assert resample_statistic(cache, SwapMask(np.zeros(10, dtype=int))) == pytest.approx(stat, abs=1e-14)


def test_resample_hand_value_n2():
    original = np.array([[1.0, 0.0], [-1.0, 0.0]])
    variant = np.array([[0.0, 1.0], [0.0, -1.0]])
    aug = AugmentedSample(original=Sample(original), variant=variant)
    cache = build_gram(aug)
    got = resample_statistic(cache, SwapMask(np.array([1, 0])))
    expected = 2.0 * math.exp(-0.5) - 2.0 * math.exp(-1.0)  # ~ +0.477297
    assert got == pytest.approx(expected, abs=1e-12)


def test_resample_matches_naive_recomputation():
    aug, cache = _random_cache(1, n=8)
    gen = np.random.default_rng(2)
    for _ in range(20):
        bits = gen.integers(0, 2, size=8)
        got = resample_statistic(cache, SwapMask(bits))
        want = naive_resampled_zeta(aug.original.data, aug.variant, bits)
        assert got == pytest.approx(want, abs=1e-12)


def test_resample_complement_equality():
    _, cache = _random_cache(3, n=12)
    gen = np.random.default_rng(4)
    for _ in range(20):
        mask = SwapMask(gen.integers(0, 2, size=12))
        a = resample_statistic(cache, mask)
        b = resample_statistic(cache, mask.complement())
        assert a == pytest.approx(b, abs=1e-12)


def test_resample_length_mismatch():
    _, cache = _random_cache(5)
    with pytest.raises(ValueError):
        resample_statistic(cache, SwapMask(np.ones(5, dtype=int)))


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
    _, cache = _random_cache(8, n=22)
    with pytest.raises(ValueError, match="20"):
        exact_pvalue(cache)


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
    from spheresym.calibrate import _batch_values, _draw_masks

    values = _batch_values(cache, _draw_masks(15, 200, RngStream(6)))
    stats = np.sort(values)[[20, 100, 180]]
    ps = [(int((values >= s).sum()) + 1) / 201 for s in stats]
    assert ps[0] >= ps[1] >= ps[2]


def test_critical_value_quantile_and_bound():
    _, cache = _random_cache(13, n=21)
    from spheresym.calibrate import _batch_values, _draw_masks

    values = _batch_values(cache, _draw_masks(21, 400, RngStream(7)))
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
        from spheresym.calibrate import _batch_values

        obs = swap_statistic(cache, np.ones(9))
        ones = _batch_values(cache, np.ones((1, 9)))[0]
        zeros = _batch_values(cache, np.zeros((1, 9)))[0]
        assert obs == ones == zeros
        assert obs == zeta_hat(aug, cache).value
        assert obs == pytest.approx(float(cache.g_matrix().sum()) / (9 * 8), abs=1e-14)
