import contextlib
import math
import tracemalloc
import warnings

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
    swap_statistic,
    zeta_hat,
)
from spheresym import calibrate, core, threads
from oracles import dense_kernel_matrix, g_from_kernel_matrix, naive_g, naive_kernel, naive_zeta, swap_pairs

# hand value for the pairs ((1,0),(0,1)) and ((-1,0),(0,-1)) in d=2
G_HAND = 2.0 * math.exp(-1.0) - 2.0 * math.exp(-0.5)  # ~ -0.477297


def _pairs_n2():
    original = np.array([[1.0, 0.0], [-1.0, 0.0]])
    variant = np.array([[0.0, 1.0], [0.0, -1.0]])
    return original, variant


def _tiled_g(aug) -> np.ndarray:
    """G assembled block by block, each block (I, J), lower ones too, from ``core.gram_tile``."""
    g = np.empty((aug.n, aug.n))
    starts = range(0, aug.n, core.TILE)
    for r in starts:
        for c in starts:
            rows, cols = slice(r, r + core.TILE), slice(c, c + core.TILE)
            g[rows, cols] = core.gram_tile(aug, rows, cols)
    return g


def _gram_of_pairs(original, variant) -> np.ndarray:
    aug = AugmentedSample(original=Sample(np.asarray(original, dtype=float)), variant=variant)
    return _tiled_g(aug)


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


def test_gram_tile_cancels_for_equal_pairs():
    data = np.random.default_rng(0).standard_normal((20, 4))
    assert np.all(_gram_of_pairs(data, data.copy()) == 0.0)


def test_gram_tile_pair_value_diagonal_identity():
    # G's diagonal is zeroed, so the identity g((x, x'), (x, x')) = 2 (1 - K(x, x'))
    # is checked on a repeated pair
    rng = np.random.default_rng(1)
    x, u = rng.standard_normal((2, 3))
    xp = np.linalg.norm(x) * u / np.linalg.norm(u)
    g = _gram_of_pairs([x, x], np.array([xp, xp]))[0, 1]
    assert g == pytest.approx(2.0 * (1.0 - naive_kernel(x, xp, 3)), abs=1e-14)
    assert g >= 0.0


def test_gram_tile_pair_value_by_hand():
    o, v = _pairs_n2()
    g = _gram_of_pairs(o, v)
    assert g[0, 1] == pytest.approx(G_HAND, abs=1e-12)
    assert g[0, 1] == pytest.approx(-0.4773024, abs=1e-6)


def test_gram_tile_matches_naive_pair_values():
    aug = augment(Sample(np.random.default_rng(2).standard_normal((10, 6))), RngStream(2))
    g = _tiled_g(aug)
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


def _at_the_tolerance(y):
    """x with fl(1e-9 x) == y; for a y of few mantissa bits, x + y is exact and sits at rtol x from x."""
    x = y / 1e-9
    return next(c for c in (x + k * math.ulp(x) for k in range(-50, 51)) if 1e-9 * c == y)


def _norms_match_as_allclose(original, variant):
    norms = [np.linalg.norm(a, axis=1) for a in (variant, original)]
    return bool(np.allclose(*norms, rtol=1e-9, atol=1e-300))


def test_augmented_sample_norm_check_is_allclose():
    # the rule |‖v‖ − ‖x‖| <= 1e-300 + 1e-9 ‖x‖, row by row, as np.allclose reads it
    cases = []
    for y in (2.0**-30, 2.0**-20, 3 * 2.0**-40, 2.0**-500, 2.0**60):
        x = _at_the_tolerance(y)
        at = x + y
        assert abs(at - x) == 1e-300 + 1e-9 * x  # exactly at the tolerance
        cases += [(x, at), (x, np.nextafter(at, np.inf)), (x, np.nextafter(at, 0.0)), (-x, -at), (x, -at)]
    rng = np.random.default_rng(4)
    for scale in (1e-200, 1e-5, 1.0, 1e7, 1e150):
        for rel in (0.0, 3e-10, -9.99e-10, 1e-9, -1e-9, 1.001e-9, 2e-9):
            x = scale * rng.uniform(0.5, 2.0)
            cases.append((x, x * (1 + rel)))
    cases += [(0.0, 0.0), (0.0, 1e-300), (0.0, 1e-150), (1e-300, 0.0), (1e-310, 2e-310)]
    verdicts = set()
    for x, v in cases:
        original, variant = np.array([[x]]), np.array([[v]])
        want = _norms_match_as_allclose(original, variant)
        verdicts.add(want)
        if want:
            AugmentedSample(original=Sample(original), variant=variant)
        else:
            with pytest.raises(ValueError, match="variant row norms do not match"):
                AugmentedSample(original=Sample(original), variant=variant)
    assert verdicts == {True, False}
    # rows of three columns, one of them off by 2e-9: the whole sample is refused
    data = rng.standard_normal((6, 3))
    variant = data[:, ::-1] * np.array([[1.0]] * 5 + [[1 + 2e-9]])
    assert not _norms_match_as_allclose(data, variant)
    with pytest.raises(ValueError, match="variant row norms do not match"):
        AugmentedSample(original=Sample(data), variant=variant)
    assert _norms_match_as_allclose(data, data[:, ::-1])
    AugmentedSample(original=Sample(data), variant=data[:, ::-1])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_augmented_sample_refuses_a_variant_that_is_not_finite(bad):
    # the original's norms are finite: an overflowed one is refused first, as
    # the overflow that augment turns into an infinite variant row
    s = Sample(np.array([[3.0, 4.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="variant contains NaN or Inf"):
        AugmentedSample(original=s, variant=np.array([[bad, 0.0], [0.0, 1.0]]))


def test_augmented_sample_refuses_rows_whose_norms_overflow():
    # both rows' norms overflow to inf and would pass the norm comparison;
    # the kernel tiles' squared distances would overflow with them
    s = Sample(np.array([[1e200, 1e200], [1.0, 0.0], [0.0, 2.0]]))
    variant = np.array([[2e200, 2e200], [0.0, 1.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow.*rescale"):
            AugmentedSample(original=s, variant=variant)


def test_gram_tile_of_a_single_row_is_zero():
    s = Sample(np.array([[3.0, 4.0]]))
    aug = augment(s, RngStream(0))
    g = _tiled_g(aug)
    assert g.shape == (1, 1) and g[0, 0] == 0.0
    k = dense_kernel_matrix(aug.original.data, aug.variant)
    k01 = naive_kernel(s.data[0], aug.variant[0], 2)
    assert k.shape == (2, 2)
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0
    assert k[0, 1] == k[1, 0] == pytest.approx(k01, abs=1e-15)


def test_gram_tile_zero_and_kernel_one_for_identical_rows():
    data = np.tile(np.array([1.0, 2.0, 2.0]), (4, 1))
    s = Sample(data)
    aug = AugmentedSample(original=s, variant=data.copy())
    assert np.all(_tiled_g(aug) == 0.0)
    assert np.all(dense_kernel_matrix(data, data) == 1.0)


def test_gram_properties_random():
    rng = np.random.default_rng(3)
    s = Sample(rng.standard_normal((15, 4)))
    aug = augment(s, RngStream(5))
    g = _tiled_g(aug)
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
    want = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    assert np.array_equal(_tiled_g(aug), want)
    # aug, all that G's tiles are built from, holds the two n x d arrays of
    # rows and no n x n array
    assert vars(aug).keys() == {"original", "variant"} and vars(aug.original).keys() == {"data"}
    assert aug.original.data.shape == aug.variant.shape == (n, d)


def _tiled_aug(n=1100, d=5):
    return augment(Sample(np.random.default_rng([n, d, 1]).standard_normal((n, d))), RngStream(n))


def _signs(n, B, seed=0):
    return calibrate._draw_signs(n, B, RngStream(seed, (7,)))


def test_swap_values_same_bits_on_one_and_two_threads():
    if threads.openblas_thread_controls() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read or set here")
    aug = _tiled_aug()
    signs = _signs(aug.n, 40)
    grams, values = [], []
    for k in (1, 2):
        with threads._openblas_limit(k, *threads.openblas_thread_controls()):
            assert threads.blas_threads() == k
            grams.append(_tiled_g(aug))
            values.append(core.swap_values(aug, signs))
    assert np.array_equal(grams[0], grams[1])
    assert np.array_equal(grams[0], g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant)))
    assert np.array_equal(values[0], values[1])


@pytest.mark.parametrize("n", [100, 250, 500])
def test_one_task_swap_values_same_bits_on_one_and_two_blas_threads(n):
    # n <= TILE: one task, so the pass runs on the calling thread, with BLAS
    # held at one thread all the same
    if threads.openblas_thread_controls() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read or set here")
    aug = _tiled_aug(n, 10)
    signs = _signs(n, 500)
    values = []
    for k in (1, 2):
        with threads._openblas_limit(k, *threads.openblas_thread_controls()):
            values.append(core.swap_values(aug, signs))
    assert np.array_equal(values[0], values[1])


def _no_pool(*args):
    raise AssertionError("a thread pool started")


def test_swap_values_runs_serially_without_thread_control(monkeypatch):
    aug = _tiled_aug()
    signs = _signs(aug.n, 40)
    controls = threads.openblas_thread_controls()

    def limit(k):
        return contextlib.nullcontext() if controls is None else threads._openblas_limit(k, *controls)

    with limit(2):
        want = core.swap_values(aug, signs)  # two threads where BLAS can be set
    # BLAS's own thread count can move a product's last bits, so the serial
    # pass runs with BLAS at one thread too, as the threaded pass holds it
    hold = limit(1)
    monkeypatch.setattr(threads, "openblas_thread_controls", lambda: None)
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _no_pool)
    assert threads.blas_threads() == 1
    with hold:
        assert np.array_equal(core.swap_values(aug, signs), want)


def _refuse_draws(monkeypatch):
    def draw(*args):
        raise AssertionError("signs drawn")

    monkeypatch.setattr(calibrate._SignRows, "_draw", draw)


def test_resampling_refuses_more_than_physical_memory(monkeypatch):
    aug = augment(Sample(np.random.default_rng(9).standard_normal((10, 2))), RngStream(9))
    draw = calibrate._SignRows._draw
    # the B x n signs at one byte each, then in 8-byte floats one tile pair's
    # B + 1 shares and one thread's block store, scratch and B x n sign panel
    need = 7 * 10 + 8 * (1 * 8 + (10 * 10 + 10 * 10 + 7 * 10))
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need - 1)
    _refuse_draws(monkeypatch)
    message = f"n = 10 pairs with B = 7 sign vectors needs about {need} bytes"
    with pytest.raises(ValueError, match=message):
        calibrate.mc_pvalue(aug, 7, RngStream(0))
    with pytest.raises(ValueError, match=message):
        calibrate.critical_value(aug, 0.05, 7, RngStream(0))
    with pytest.raises(ValueError, match=message):
        core.swap_values(aug, np.ones((7, 10)))
    monkeypatch.setattr(calibrate._SignRows, "_draw", draw)
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need)
    want = calibrate.mc_pvalue(aug, 7, RngStream(0))
    assert want.B == 7
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: None)
    assert calibrate.mc_pvalue(aug, 7, RngStream(0)) == want


def test_memory_guard_counts_the_tiled_pass(monkeypatch):
    aug = augment(Sample(np.random.default_rng(9).standard_normal((10, 2))), RngStream(9))
    monkeypatch.setattr(core, "TILE", 4)  # three tiles, six tile pairs
    monkeypatch.setattr(core, "blas_threads", lambda: 2)
    signs = _signs(10, 5)
    g = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    want = np.einsum("ij,ij->i", signs @ g, signs) / 90
    # blocks of 128 rows leave each diagonal tile one block: six blocks; blocks
    # of 2 rows split tiles 0:4 and 4:8 into three upper blocks each: ten blocks
    for block, blocks in ((128, 6), (2, 10)):
        monkeypatch.setattr(core, "BLOCK", block)
        # signs at one byte each, one row of B + 1 shares per block, and two
        # threads' block store (an off-diagonal 4 x 4; a diagonal tile's blocks
        # take no more), scratch (the B x 4 product) and panel (B rows of an
        # off-diagonal task's 8 sign columns)
        need = 5 * 10 + 8 * (blocks * 6 + 2 * (4 * 4 + 5 * 4 + 5 * 8))
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=f"n = 10 pairs with B = 5 sign vectors needs about {need} bytes"):
            calibrate.mc_pvalue(aug, 5, RngStream(3))
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need)
        np.testing.assert_allclose(core.swap_values(aug, signs)[1:], want, rtol=0, atol=1e-15)


def test_one_byte_signs_admit_a_pass_that_eight_byte_signs_would_not(monkeypatch):
    n, B = 600, 500
    aug = augment(Sample(np.random.default_rng(9).standard_normal((n, 2))), RngStream(9))
    monkeypatch.setattr(core, "blas_threads", lambda: 1)
    # tiles 0:512 (ten 128-row blocks) and 512:600, and their off-diagonal
    # pair: twelve blocks.  Signs at one byte, shares, and one thread's block
    # store (the ten blocks), scratch (the 512 x 88 block) and panel (128 rows
    # of the tile pair's 600 sign columns)
    need = B * n + 8 * (12 * (B + 1) + 10 * 128 * 128 + 512 * 88 + 128 * 600)
    # with 8-byte signs, one largest-block buffer and a B-row product buffer
    # (B x 128) the same pass would count 3,320,544 bytes; the signs alone
    # make the difference, as at one byte each it would count 1,220,544
    eight = 8 * (B * n + 12 * (B + 1) + 512 * 88 + B * 128)
    assert (need, eight, eight - 7 * B * n) == (2_633_664, 3_320_544, 1_220_544)
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need)
    want = calibrate.mc_pvalue(aug, B, RngStream(0))
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: None)
    assert calibrate.mc_pvalue(aug, B, RngStream(0)) == want
    monkeypatch.setattr(core, "_physical_memory_bytes", lambda: need - 1)
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"n = 600 pairs with B = 500 sign vectors needs about {need} bytes"):
        calibrate.mc_pvalue(aug, B, RngStream(0))


def test_swap_values_same_for_int8_and_float_signs_and_any_panel(monkeypatch):
    aug = _tiled_aug(n=700, d=3)
    signs = _signs(aug.n, 45)
    assert signs.dtype == np.int8
    values = core.swap_values(aug, signs)
    assert np.array_equal(core.swap_values(aug, signs.astype(float)), values)
    assert np.array_equal(swap_statistic(aug, signs), values[1:])
    # a panel of 4096 signs per tile streams the 45 rows in chunks of 8 (the
    # tasks that read the 512-row tile) and 21 (the 188-row tile), which
    # changes the shapes of the products and may move last bits
    monkeypatch.setattr(core, "PANEL", 4096)
    assert [chunk for _, chunk, _ in core.resample_plan(aug.n, 45)[0]] == [8, 8, 21]
    np.testing.assert_allclose(core.swap_values(aug, signs), values, rtol=0, atol=1e-15)
    monkeypatch.setattr(core, "PANEL", 1)  # one sign row at a time
    assert {chunk for _, chunk, _ in core.resample_plan(aug.n, 45)[0]} == {1}
    np.testing.assert_allclose(core.swap_values(aug, signs), values, rtol=0, atol=1e-15)


def test_an_observed_only_pass_keeps_one_block_at_a_time():
    # n = 500 is one diagonal tile of four 128-row blocks, ten upper pairs
    assert core.resample_plan(500, 0)[2][0] == 128 * 128
    assert core.resample_plan(500, 1)[2][0] == 6 * 128 * 128 + 3 * 128 * 116 + 116 * 116
    aug = _tiled_aug(n=500, d=3)
    assert core.swap_values(aug)[0] == core.swap_values(aug, _signs(500, 3))[0]


def test_resampling_refuses_a_huge_B_without_allocating(monkeypatch):
    aug = augment(Sample(np.random.default_rng(9).standard_normal((10, 2))), RngStream(9))
    if core._physical_memory_bytes() is None:
        monkeypatch.setattr(core, "_physical_memory_bytes", lambda: 1 << 40)
    _refuse_draws(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n = 10 pairs with B = 1000000000000 sign vectors"):
            calibrate.mc_pvalue(aug, 10**12, RngStream(0))
        with pytest.raises(ValueError, match=r"B = 1000000000000 sign vectors"):
            calibrate.critical_value(aug, 0.05, 10**12, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [10, 13, 21])  # 13, 21: a ragged last tile
def test_swap_values_same_bits_on_one_and_two_workers(monkeypatch, n):
    aug = augment(Sample(np.random.default_rng(n).standard_normal((n, 3))), RngStream(n))
    signs = _signs(n, 33)
    g = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    want = np.einsum("ij,ij->i", signs @ g, signs) / (n * (n - 1))
    # whole diagonal tiles, then diagonal tiles split into blocks of 2 rows
    for tile, block in ((4, core.BLOCK), (8, 2)):
        monkeypatch.setattr(core, "TILE", tile)
        monkeypatch.setattr(core, "BLOCK", block)
        values = []
        for workers in (1, 2):
            monkeypatch.setattr(core, "blas_threads", lambda: workers)
            values.append(core.swap_values(aug, signs))
        assert np.array_equal(values[0], values[1])
        np.testing.assert_allclose(values[0][1:], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [100, 500, 1100])
def test_a_pass_builds_only_the_upper_blocks_of_each_diagonal_tile(monkeypatch, n):
    aug = _tiled_aug(n=n, d=3)
    B = 3
    count = {"entries": 0, "flops": 0}
    kernel, forms = core._kernel_tile, core._forms

    def counted_kernel(a, b, d, buf):
        count["entries"] += len(a) * len(b)
        return kernel(a, b, d, buf)

    def counted_forms(left, g, right, out, product):
        count["flops"] += len(left) * g.size
        return forms(left, g, right, out, product)

    monkeypatch.setattr(core, "_kernel_tile", counted_kernel)
    monkeypatch.setattr(core, "_forms", counted_forms)
    core.swap_values(aug, _signs(n, B))
    entries, area = count["entries"], count["flops"] // (B + 1)  # the all-ones form and B signed ones
    assert count["flops"] == (B + 1) * area
    assert entries <= 2 * n * n + core.BLOCK * n
    assert area <= (n * n + core.BLOCK * n) // 2
    # one 128-row block: the whole tile, E once; four blocks of 128, 128, 128, 116 rows
    want = {100: (3 * n * n, n * n), 500: (562_608, 156_304)}
    if n in want:
        assert (entries, area) == want[n]


@pytest.mark.parametrize("n, tile", [(13, 4), (40, 512), (129, 512), (300, 512), (500, 512), (1100, 512)])
def test_swap_values_match_the_dense_quadratic_forms(monkeypatch, n, tile):
    aug = augment(Sample(np.random.default_rng([n, 2]).standard_normal((n, 4))), RngStream(n, (2,)))
    monkeypatch.setattr(core, "TILE", tile)
    signs = _signs(n, 25)
    values = core.swap_values(aug, signs)
    g = g_from_kernel_matrix(dense_kernel_matrix(aug.original.data, aug.variant))
    norm = n * (n - 1)
    assert abs(values[0] - g.sum() / norm) <= 1e-15
    want = np.einsum("ij,ij->i", signs @ g, signs) / norm
    np.testing.assert_allclose(values[1:], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("tile", [4, 512])
def test_swap_values_all_ones_give_the_observed_value_and_minus_s_gives_s(monkeypatch, tile):
    aug = _tiled_aug(n=13, d=3)
    monkeypatch.setattr(core, "TILE", tile)
    obs = core.swap_values(aug)
    assert obs.shape == (1,)
    ones = core.swap_values(aug, np.ones((1, 13)))
    assert ones[0] == ones[1] == obs[0]
    signs = _signs(13, 30)
    signs[4] = 1.0
    values = core.swap_values(aug, signs)
    assert values[0] == obs[0]
    assert abs(values[5] - obs[0]) <= 1e-15
    assert np.array_equal(core.swap_values(aug, -signs), values)
    if tile >= 13:  # G is one tile, as the exact enumeration reads it
        g, stat = core.one_tile(aug)
        assert stat == obs[0]
        assert np.array_equal(g, _tiled_g(aug))


def test_mc_pvalue_never_allocates_the_dense_gram():
    n = 2000
    aug = _tiled_aug(n=n, d=10)
    tracemalloc.start()
    try:
        calibrate.mc_pvalue(aug, 500, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # G alone would be 8 n^2 = 32 MB; the pass holds 1 MB of signs and a few tiles
    assert peak < 8 * n * n


def test_observed_statistic_n2_hand_value():
    o, v = _pairs_n2()
    aug = AugmentedSample(original=Sample(o), variant=v)
    assert swap_statistic(aug, np.ones(2)) == pytest.approx(G_HAND, abs=1e-12)


def test_observed_statistic_zero_when_variant_equals_original():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((10, 3))
    aug = AugmentedSample(original=Sample(data), variant=data.copy())
    assert swap_statistic(aug, np.ones(10)) == 0.0


def test_observed_statistic_duplicated_dataset_against_naive():
    o, v = _pairs_n2()
    o4 = np.vstack([o, o])
    v4 = np.vstack([v, v])
    aug = AugmentedSample(original=Sample(o4), variant=v4)
    assert swap_statistic(aug, np.ones(4)) == pytest.approx(naive_zeta(o4, v4), abs=1e-12)


def test_observed_statistic_requires_two_rows():
    s = Sample(np.array([[1.0, 0.0]]))
    aug = augment(s, RngStream(0))
    with pytest.raises(ValueError, match="at least two"):
        swap_statistic(aug, np.ones(1))


@pytest.mark.parametrize("n", [13, 600])  # one tile, two tiles
def test_zeta_hat_kept_for_the_benchmark_is_the_all_ones_swap_statistic(n):
    aug = _tiled_aug(n=n, d=3)
    assert build_gram(aug) is aug
    assert zeta_hat(aug, build_gram(aug)).value == swap_statistic(aug, np.ones(n))


def test_observed_statistic_equals_naive_recomputation():
    rng = np.random.default_rng(6)
    for trial in range(5):
        s = Sample(rng.standard_normal((12, 3)))
        aug = augment(s, RngStream(trial))
        assert swap_statistic(aug, np.ones(12)) == pytest.approx(
            naive_zeta(aug.original.data, aug.variant), abs=1e-12
        )


def test_observed_statistic_full_swap_invariance():
    rng = np.random.default_rng(7)
    s = Sample(rng.standard_normal((8, 5)))
    aug = augment(s, RngStream(9))
    swapped = AugmentedSample(original=Sample(aug.variant), variant=aug.original.data)
    v1 = swap_statistic(aug, np.ones(8))
    v2 = swap_statistic(swapped, np.ones(8))
    assert v1 == pytest.approx(v2, abs=1e-14)


def test_observed_statistic_rotation_invariance():
    rng = np.random.default_rng(8)
    s = Sample(rng.standard_normal((10, 4)))
    aug = augment(s, RngStream(10))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = AugmentedSample(
        original=Sample(aug.original.data @ q.T), variant=aug.variant @ q.T
    )
    v1 = swap_statistic(aug, np.ones(10))
    v2 = swap_statistic(rotated, np.ones(10))
    assert v1 == pytest.approx(v2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 6))
def test_observed_statistic_bounded(seed, n, d):
    rng = np.random.default_rng(seed)
    s = Sample(rng.standard_normal((n, d)))
    aug = augment(s, RngStream(seed))
    assert abs(swap_statistic(aug, np.ones(n))) <= 2.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
def test_gram_tile_flips_sign_under_swaps(seed, n, d):
    # swapping pair i flips the sign of row and column i: G -> D G D, D = diag(s)
    aug = augment(Sample(np.random.default_rng(seed).standard_normal((n, d))), RngStream(seed))
    s = np.ones(n)
    s[seed % n] = -1.0
    want = s[:, None] * _tiled_g(aug) * s
    np.testing.assert_allclose(_tiled_g(swap_pairs(aug, s)), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, tile", [(40, 512), (300, 512), (500, 512), (300, 128)])
def test_a_stopped_pass_gives_the_full_pass_values_bit_for_bit(monkeypatch, n, tile):
    monkeypatch.setattr(core, "TILE", tile)
    aug = _tiled_aug(n=n, d=4)
    signs = _signs(n, 500)
    full = core.swap_values(aug, signs)
    reached = np.cumsum(full[1:] >= core._tie_floor(full[0]))
    ((_, chunk, _), *more) = core.resample_plan(n, 500)[0]
    for stop in (0, 1, 25, int(reached[-1]), int(reached[-1]) + 1, 500):
        part = core.swap_values(aug, signs, stop)
        assert np.array_equal(part, full[: len(part)])
        evaluated = len(part) - 1
        if more:  # a pass of several tasks runs every chunk
            assert evaluated == 500
            continue
        # the pass ends at the first chunk boundary where stop values reach the floor
        ends = [k for k in range(0, 500, chunk) if (reached[k - 1] if k else 0) >= stop]
        assert evaluated == (ends[0] if ends else 500)
