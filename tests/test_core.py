import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheresym import (
    AugmentedSample,
    RngStream,
    Sample,
    augment,
    build_gram,
    zeta_hat,
)
from spheresym import core, threads
from oracles import dense_kernel_matrix, g_from_kernel_matrix, naive_g, naive_kernel, naive_zeta, swap_pairs

# hand value for the pairs ((1,0),(0,1)) and ((-1,0),(0,-1)) in d=2
G_HAND = 2.0 * math.exp(-1.0) - 2.0 * math.exp(-0.5)  # ~ -0.477297


def _pairs_n2():
    original = np.array([[1.0, 0.0], [-1.0, 0.0]])
    variant = np.array([[0.0, 1.0], [0.0, -1.0]])
    return original, variant


def _gram_of_pairs(original, variant) -> np.ndarray:
    aug = AugmentedSample(original=Sample(np.asarray(original, dtype=float)), variant=variant)
    return build_gram(aug).g


def test_kernel_zero_distance_is_one():
    # a repeated pair (x, -x), (x, -x) gives g = K(x, x) + K(-x, -x) - 2 K(x, -x)
    x = np.array([0.3, -1.2, 4.0])
    g = _gram_of_pairs([x, x], np.array([-x, -x]))
    assert g[0, 1] == pytest.approx(2.0 - 2.0 * math.exp(-4.0 * x.dot(x) / 6.0), abs=1e-14)


def test_kernel_analytic_values():
    # pair 1 is pair 0 swapped, so g = 2 K(1, -1) - 2 K(1, 1) = 2 exp(-20 / 10) - 2 in d = 5
    one = np.ones(5)
    g = _gram_of_pairs([one, -one], np.array([-one, one]))
    assert g[0, 1] == pytest.approx(2.0 * math.exp(-2.0) - 2.0, abs=1e-12)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        AugmentedSample(original=Sample(np.zeros((2, 3))), variant=np.zeros((2, 2)))


def test_symmetrized_kernel_cancels_for_equal_pairs():
    data = np.random.default_rng(0).standard_normal((20, 4))
    assert np.all(_gram_of_pairs(data, data.copy()) == 0.0)


def test_symmetrized_kernel_diagonal_identity():
    # G's diagonal is zeroed, so the identity g((x, x'), (x, x')) = 2 (1 - K(x, x'))
    # is checked on a repeated pair
    rng = np.random.default_rng(1)
    x, u = rng.standard_normal((2, 3))
    xp = np.linalg.norm(x) * u / np.linalg.norm(u)
    g = _gram_of_pairs([x, x], np.array([xp, xp]))[0, 1]
    assert g == pytest.approx(2.0 * (1.0 - naive_kernel(x, xp, 3)), abs=1e-14)
    assert g >= 0.0


def test_symmetrized_kernel_hand_value():
    o, v = _pairs_n2()
    g = _gram_of_pairs(o, v)
    assert g[0, 1] == pytest.approx(G_HAND, abs=1e-12)
    assert g[0, 1] == pytest.approx(-0.4773024, abs=1e-6)


def test_symmetrized_kernel_matches_naive():
    aug = augment(Sample(np.random.default_rng(2).standard_normal((10, 6))), RngStream(2))
    g = build_gram(aug).g
    pairs = list(zip(aug.original.data, aug.variant))
    for i in range(10):
        for j in range(10):
            if i != j:
                assert g[i, j] == pytest.approx(naive_g(pairs[i], pairs[j], 6), abs=1e-12)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Sample(np.empty((0, 2)))


def test_augmented_sample_norm_check():
    s = Sample(np.array([[3.0, 4.0]]))
    with pytest.raises(ValueError):
        AugmentedSample(original=s, variant=np.array([[1.0, 0.0]]))


def test_build_gram_single_row():
    s = Sample(np.array([[3.0, 4.0]]))
    aug = augment(s, RngStream(0))
    g = build_gram(aug).g
    assert g.shape == (1, 1) and g[0, 0] == 0.0
    k = dense_kernel_matrix(aug.original.data, aug.variant)
    k01 = naive_kernel(s.data[0], aug.variant[0], 2)
    assert k.shape == (2, 2)
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0
    assert k[0, 1] == k[1, 0] == pytest.approx(k01, abs=1e-15)


def test_build_gram_identical_rows_all_ones():
    data = np.tile(np.array([1.0, 2.0, 2.0]), (4, 1))
    s = Sample(data)
    aug = AugmentedSample(original=s, variant=data.copy())
    assert np.all(build_gram(aug).g == 0.0)
    assert np.all(dense_kernel_matrix(data, data) == 1.0)


def test_gram_properties_random():
    rng = np.random.default_rng(3)
    s = Sample(rng.standard_normal((15, 4)))
    aug = augment(s, RngStream(5))
    cache = build_gram(aug)
    g = cache.g
    assert np.all(np.diag(g) == 0.0)
    assert np.allclose(g, g.T, rtol=0.0, atol=1e-15)
    assert np.all(g >= -2.0) and np.all(g <= 2.0)
    k = dense_kernel_matrix(aug.original.data, aug.variant)
    assert np.array_equal(k, k.T)
    assert np.all(np.diag(k) == 1.0)
    assert np.all(k > 0.0) and np.all(k <= 1.0)


@pytest.mark.parametrize(
    "n, d, scale",
    [
        (1, 1, 1.0),
        (1, 5, 3.0),
        (2, 1, 1e-3),
        (7, 2, 50.0),
        (30, 10, 1.0),
        (100, 4, 1e-3),
        (100, 4, 50.0),
        (64, 3, "mixed"),
        (20, 3, "repeated"),
        (500, 10, 1.0),
        (513, 10, 1.0),  # one row past a tile
        (1100, 4, 1.0),  # a ragged third tile
        (600, 3, "repeated"),  # repeated rows across tiles
    ],
)
def test_build_gram_bit_identical_to_dense_kernel(n, d, scale):
    gen = np.random.default_rng([n, d])
    if scale == "repeated":
        data = np.repeat(gen.standard_normal((n // 4, d)), 4, axis=0)
    else:
        data = gen.standard_normal((n, d))
        # "mixed": columns spanning 1e-3 to 50
        data *= np.geomspace(1e-3, 50.0, d) if scale == "mixed" else scale
    aug = augment(Sample(data), RngStream(n, (d,)))
    cache = build_gram(aug)
    want = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    assert np.array_equal(cache.g, want)
    assert not hasattr(cache, "k")
    assert sum(v.nbytes for v in vars(cache).values() if isinstance(v, np.ndarray)) == 8 * n * n
    assert not cache.g.flags.writeable


def _tiled_aug(n=1100, d=5):
    return augment(Sample(np.random.default_rng([n, d, 1]).standard_normal((n, d))), RngStream(n))


def test_build_gram_same_bits_on_one_and_two_threads():
    if threads.openblas_thread_controls() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read or set here")
    aug = _tiled_aug()
    grams = []
    for k in (1, 2):
        with threads.thread_limit(k):
            assert threads.blas_threads() == k
            grams.append(build_gram(aug).g)
    assert np.array_equal(grams[0], grams[1])
    assert np.array_equal(grams[0], g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant)))


def _no_pool(*args):
    raise AssertionError("a thread pool started")


def test_build_gram_runs_serially_without_thread_control(monkeypatch):
    aug = _tiled_aug()
    want = build_gram(aug).g
    monkeypatch.setattr(threads, "openblas_thread_controls", lambda: None)
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _no_pool)
    assert threads.blas_threads() == 1
    assert np.array_equal(build_gram(aug).g, want)


def test_build_gram_refuses_more_than_physical_memory(monkeypatch):
    aug = augment(Sample(np.random.default_rng(9).standard_normal((10, 2))), RngStream(9))
    need = 8 * 10 * 10 + 10 * 10 * 8  # G plus the one tile buffer of a one-tile G
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"n = 10 needs about {need} bytes"):
        build_gram(aug)
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need)
    assert build_gram(aug).n == 10
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: None)
    assert build_gram(aug).n == 10


def test_memory_guard_counts_two_buffers_per_worker_for_a_tiled_gram(monkeypatch):
    aug = augment(Sample(np.random.default_rng(9).standard_normal((10, 2))), RngStream(9))
    monkeypatch.setattr(core, "TILE", 4)  # three tiles, six tile pairs
    monkeypatch.setattr(core, "blas_threads", lambda: 2)
    need = 8 * 10 * 10 + 2 * 2 * 4 * 4 * 8  # G plus two workers' two tile buffers
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"n = 10 needs about {need} bytes"):
        build_gram(aug)
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need)
    want = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    assert np.array_equal(build_gram(aug).g, want)


def test_zeta_hat_n2_hand_value():
    o, v = _pairs_n2()
    aug = AugmentedSample(original=Sample(o), variant=v)
    cache = build_gram(aug)
    assert zeta_hat(aug, cache).value == pytest.approx(G_HAND, abs=1e-12)


def test_zeta_hat_zero_when_variant_equals_original():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((10, 3))
    aug = AugmentedSample(original=Sample(data), variant=data.copy())
    cache = build_gram(aug)
    assert zeta_hat(aug, cache).value == 0.0


def test_zeta_hat_duplicated_dataset_against_naive():
    o, v = _pairs_n2()
    o4 = np.vstack([o, o])
    v4 = np.vstack([v, v])
    aug = AugmentedSample(original=Sample(o4), variant=v4)
    cache = build_gram(aug)
    assert zeta_hat(aug, cache).value == pytest.approx(naive_zeta(o4, v4), abs=1e-12)


def test_zeta_hat_requires_two_rows():
    s = Sample(np.array([[1.0, 0.0]]))
    aug = augment(s, RngStream(0))
    with pytest.raises(ValueError):
        zeta_hat(aug, build_gram(aug))


def test_zeta_hat_cache_equals_naive_recomputation():
    rng = np.random.default_rng(6)
    for trial in range(5):
        s = Sample(rng.standard_normal((12, 3)))
        aug = augment(s, RngStream(trial))
        cache = build_gram(aug)
        assert zeta_hat(aug, cache).value == pytest.approx(
            naive_zeta(aug.original.data, aug.variant), abs=1e-12
        )


def test_zeta_hat_full_swap_invariance():
    rng = np.random.default_rng(7)
    s = Sample(rng.standard_normal((8, 5)))
    aug = augment(s, RngStream(9))
    swapped = AugmentedSample(original=Sample(aug.variant), variant=aug.original.data)
    v1 = zeta_hat(aug, build_gram(aug)).value
    v2 = zeta_hat(swapped, build_gram(swapped)).value
    assert v1 == pytest.approx(v2, abs=1e-14)


def test_zeta_hat_rotation_invariance():
    rng = np.random.default_rng(8)
    s = Sample(rng.standard_normal((10, 4)))
    aug = augment(s, RngStream(10))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = AugmentedSample(
        original=Sample(aug.original.data @ q.T), variant=aug.variant @ q.T
    )
    v1 = zeta_hat(aug, build_gram(aug)).value
    v2 = zeta_hat(rotated, build_gram(rotated)).value
    assert v1 == pytest.approx(v2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 6))
def test_zeta_hat_bounded(seed, n, d):
    rng = np.random.default_rng(seed)
    s = Sample(rng.standard_normal((n, d)))
    aug = augment(s, RngStream(seed))
    assert abs(zeta_hat(aug, build_gram(aug)).value) <= 2.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
def test_symmetrized_kernel_antisymmetry(seed, n, d):
    # swapping pair i flips the sign of row and column i: G -> D G D, D = diag(s)
    aug = augment(Sample(np.random.default_rng(seed).standard_normal((n, d))), RngStream(seed))
    s = np.ones(n)
    s[seed % n] = -1.0
    want = s[:, None] * build_gram(aug).g * s
    np.testing.assert_allclose(build_gram(swap_pairs(aug, s)).g, want, rtol=0.0, atol=1e-12)
