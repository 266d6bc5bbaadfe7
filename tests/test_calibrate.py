import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spheresym import (
    AugmentedSample,
    RngStream,
    Sample,
    augment,
    critical_value,
    exact_pvalue,
    mc_pvalue,
    run_test,
    swap_statistic,
)
from spheresym import calibrate, core
from spheresym.calibrate import ENUM_LIMIT, cutoff_bound
from oracles import direct_exact_pvalue, naive_exact_pvalue, naive_resampled_zeta


def _random_aug(seed, n=10, d=3):
    s = Sample(np.random.default_rng(seed).standard_normal((n, d)))
    return augment(s, RngStream(seed, (1,)))


def test_swap_mask_validation():
    aug = _random_aug(0, n=3)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        swap_statistic(aug, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        swap_statistic(aug, np.array([[1.0, 2.0, -1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        swap_statistic(aug, np.ones((2, 2, 3)))


def test_resample_identity_and_full_swap_reproduce_statistic():
    aug = _random_aug(0)
    stat = core.swap_values(aug)[0]
    assert swap_statistic(aug, np.ones(10)) == stat
    assert swap_statistic(aug, -np.ones(10)) == pytest.approx(stat, abs=1e-14)


def test_resample_hand_value_n2():
    original = np.array([[1.0, 0.0], [-1.0, 0.0]])
    variant = np.array([[0.0, 1.0], [0.0, -1.0]])
    aug = AugmentedSample(original=Sample(original), variant=variant)
    got = swap_statistic(aug, np.array([1.0, -1.0]))
    expected = 2.0 * math.exp(-0.5) - 2.0 * math.exp(-1.0)  # ~ +0.477297
    assert got == pytest.approx(expected, abs=1e-12)


def test_resample_matches_naive_recomputation():
    aug = _random_aug(1, n=8)
    gen = np.random.default_rng(2)
    for _ in range(20):
        bits = gen.integers(0, 2, size=8)
        got = swap_statistic(aug, 2.0 * bits - 1.0)
        want = naive_resampled_zeta(aug.original.data, aug.variant, bits)
        assert got == pytest.approx(want, abs=1e-12)


def test_resample_complement_equality():
    aug = _random_aug(3, n=12)
    gen = np.random.default_rng(4)
    for _ in range(20):
        signs = 2.0 * gen.integers(0, 2, size=12) - 1.0
        a = swap_statistic(aug, signs)
        b = swap_statistic(aug, -signs)
        assert a == pytest.approx(b, abs=1e-12)


def test_resample_length_mismatch():
    aug = _random_aug(5)
    with pytest.raises(ValueError):
        swap_statistic(aug, np.ones(5))


def test_swap_statistic_refuses_values_outside_the_range(monkeypatch):
    # entries of a real G lie in [-2, 2]; a corrupt tile must fail loudly,
    # for the observed value and for every resample, in run_test's p-values too
    def tile_of(value):
        def corrupt_tile(aug, rows, cols, out=None, scratch=None):
            g = np.full((aug.n, aug.n), value)
            np.fill_diagonal(g, 0.0)
            return g[rows, cols]

        return corrupt_tile

    aug = AugmentedSample(original=Sample(np.ones((4, 1))), variant=-np.ones((4, 1)))
    monkeypatch.setattr(core, "gram_tile", tile_of(3.0))
    with pytest.raises(ValueError, match=r"out of range \[-2, 2\]: 3"):
        swap_statistic(aug, np.ones(4))
    with pytest.raises(ValueError, match="out of range"):
        swap_statistic(aug, np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="out of range"):
        mc_pvalue(aug, 10, RngStream(0))
    with pytest.raises(ValueError, match="out of range"):
        exact_pvalue(aug)
    # a NaN tile gives NaN values, refused the same way (AugmentedSample
    # itself refuses rows that are not finite)
    monkeypatch.setattr(core, "gram_tile", tile_of(np.nan))
    with pytest.raises(ValueError, match=r"out of range \[-2, 2\]: nan"):
        mc_pvalue(aug, 10, RngStream(0))


def test_exact_pvalue_floor_from_swap_symmetry():
    aug = _random_aug(6, n=2)
    out = exact_pvalue(aug)
    assert out.p_value >= 0.5
    for seed in range(3):
        aug = _random_aug(seed + 10, n=7)
        out = exact_pvalue(aug)
        assert out.p_value >= 2.0 ** (1 - 7)


def test_exact_pvalue_matches_naive_enumeration():
    aug = _random_aug(7, n=8)
    out = exact_pvalue(aug)
    assert out.p_value == pytest.approx(
        naive_exact_pvalue(aug.original.data, aug.variant), abs=1e-12
    )
    assert out.method == "exact"


def test_exact_pvalue_refuses_large_n():
    aug = _random_aug(8, n=ENUM_LIMIT + 1)
    with pytest.raises(ValueError, match=f"n <= {ENUM_LIMIT} "):
        exact_pvalue(aug)


def _structured_aug(seed, n, d, rows):
    """Augmented sample whose data has structural ties: repeated rows or a zero row."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    if rows == "repeated":
        x[1] = x[0]
        x[n - 1] = x[0]
    else:
        x[n // 2] = 0.0
    return augment(Sample(x), RngStream(seed, (1,)))


_EXACT_CASES = [(n, d, None) for n in (2, 3, 5, 8, 11, 16) for d in (1, 2, 10)] + [
    (8, 2, "repeated"), (11, 10, "repeated"), (5, 1, "zero"), (11, 2, "zero"),
]


@pytest.mark.parametrize("seed, n, d, rows", [(40 + i, *case) for i, case in enumerate(_EXACT_CASES)])
def test_exact_pvalue_equals_direct_enumeration(seed, n, d, rows):
    aug = _random_aug(seed, n=n, d=d) if rows is None else _structured_aug(seed, n, d, rows)
    assert exact_pvalue(aug).p_value == direct_exact_pvalue(aug)


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
    count = calibrate._count_at_least

    def recording(values, t, mask):
        shapes.append(values.shape)
        return count(values, t, mask)

    monkeypatch.setattr(calibrate, "_count_at_least", recording)
    return shapes


def test_exact_pvalue_independent_of_tile_budget(monkeypatch):
    aug = _random_aug(16, n=16, d=2)
    want = exact_pvalue(aug).p_value
    monkeypatch.setattr(calibrate, "_TILE_BYTES", 4096)
    shapes = _record_tiles(monkeypatch)
    assert exact_pvalue(aug).p_value == want
    assert len(shapes) > 1
    assert all(9 * r * c <= 4096 for r, c in shapes)
    assert sum(r * c for r, c in shapes) == 1 << 15


def test_least_scaled_is_the_least_value_whose_quotient_reaches_the_floor():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        norm = int(rng.integers(2, 27)) * int(rng.integers(1, 26))
        floor = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, 1))
        t = calibrate._least_scaled(floor, norm)
        assert t / norm >= floor > math.nextafter(t, -math.inf) / norm


def test_exact_counts_match_dividing_every_value_first(monkeypatch):
    # 210 random samples at n <= 22, data scales 1e-3 to 1e3: every tile's
    # count against the unnormalised floor equals the count of its values
    # divided by n (n - 1) and compared with the guarded observed value.
    # Few values fall near that floor, so the tile's first values are also
    # counted against floors on their own quotients and one float either side.
    count = calibrate._count_at_least
    for case in range(210):
        rng = np.random.default_rng([22, case])
        n, d = int(rng.integers(2, 23)), int(rng.integers(1, 6))
        data = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, d))
        aug = augment(Sample(data), RngStream(case, (22,)))
        floor, norm = calibrate._tie_floor(calibrate.one_tile(aug)[1]), n * (n - 1)
        counts = []

        def checked(values, t, mask):
            got = count(values, t, mask)
            counts.append((got, int(np.count_nonzero(values / norm >= floor))))
            head = values.ravel()[:512]
            for q in head[:3] / norm:
                for f in (math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf)):
                    at = calibrate._least_scaled(f, norm)
                    counts.append((np.count_nonzero(head >= at), np.count_nonzero(head / norm >= f)))
            return got

        monkeypatch.setattr(calibrate, "_count_at_least", checked)
        exact_pvalue(aug)
        assert counts and all(got == want for got, want in counts), (case, n)


def test_exact_pvalue_at_enum_limit_within_tile_budget(monkeypatch):
    aug = _random_aug(17, n=ENUM_LIMIT, d=10)
    shapes = _record_tiles(monkeypatch)
    out = exact_pvalue(aug)
    assert all(9 * r * c <= calibrate._TILE_BYTES for r, c in shapes)
    assert sum(r * c for r, c in shapes) == 1 << (ENUM_LIMIT - 1)
    k = out.p_value * (1 << ENUM_LIMIT)
    assert k == int(k) and k % 2 == 0 and k >= 2


def _fresh_outcomes(augs, monkeypatch):
    """exact_pvalue's outcomes, each from a workspace with no kept buffers."""
    outcomes = []
    for aug in augs:
        monkeypatch.setattr(calibrate, "_workspace", threading.local())
        outcomes.append(exact_pvalue(aug).to_dict())
    return outcomes


def test_exact_pvalue_with_kept_buffers_equals_a_fresh_call(monkeypatch):
    augs = [_random_aug(40 + n, n=n, d=3) for n in (16, 18, 20, ENUM_LIMIT)]
    want = _fresh_outcomes(augs, monkeypatch)
    monkeypatch.setattr(calibrate, "_workspace", threading.local())
    budget = calibrate._TILE_BYTES
    # small tiles first, so the buffers grow at the default budget; then
    # small again, as views into larger buffers
    for tile_bytes, order in [(4096, [1, 0]), (budget, [0, 3, 1, 2, 0, 3]), (4096, [2, 0, 3])]:
        monkeypatch.setattr(calibrate, "_TILE_BYTES", tile_bytes)
        assert [exact_pvalue(augs[i]).to_dict() for i in order] == [want[i] for i in order], tile_bytes


def test_exact_pvalue_on_several_threads_at_once_gives_the_serial_outcomes():
    augs = [_random_aug(50 + n, n=n, d=2) for n in (12, 16, 18, 20)]
    want = [exact_pvalue(aug).to_dict() for aug in augs]
    orders = [[0, 1, 2, 3] * 3, [3, 2, 1, 0] * 3, [2, 0, 3, 1] * 3, [1, 3, 0, 2] * 3]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(len(orders)) as pool:
            futures = [pool.submit(lambda o: [exact_pvalue(augs[i]).to_dict() for i in o], order)
                       for order in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[want[i] for i in order] for order in orders]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's per-thread fault count")
def test_repeated_exact_pvalue_calls_fault_in_no_fresh_pages():
    import resource

    aug = _random_aug(60, n=20, d=10)
    exact_pvalue(aug)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(20):
        exact_pvalue(aug)
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 64


def test_mc_pvalue_bounds_and_grid():
    aug = _random_aug(9)
    B = 37
    out = mc_pvalue(aug, B, RngStream(1))
    assert 1.0 / (B + 1) <= out.p_value <= 1.0
    k = round(out.p_value * (B + 1))
    assert out.p_value == pytest.approx(k / (B + 1), abs=1e-15)


def test_mc_pvalue_is_one_for_degenerate_pairs():
    data = np.random.default_rng(10).standard_normal((6, 2))
    aug = AugmentedSample(original=Sample(data), variant=data.copy())
    out = mc_pvalue(aug, 100, RngStream(2))
    assert out.p_value == 1.0


def test_draw_signs_are_the_mask_stream_as_signs():
    from spheresym.calibrate import _draw_signs

    bits = RngStream(5, (2,)).generator().integers(0, 2, size=(70, 33))
    signs = _draw_signs(33, 70, RngStream(5, (2,)))
    assert signs.dtype == np.int8
    assert np.array_equal(signs, 2.0 * bits - 1.0)


@pytest.mark.parametrize("draw_bytes", [calibrate._DRAW_BYTES, 100])  # 100: one row per chunk of words
@pytest.mark.parametrize("n", [1, 7, 131])
def test_sign_rows_read_in_ragged_chunks_are_one_integers_draw(monkeypatch, n, draw_bytes):
    monkeypatch.setattr(calibrate, "_DRAW_BYTES", draw_bytes)
    B = 99
    want = 2 * RngStream(3, (n,)).generator().integers(0, 2, size=(B, n)) - 1
    rows = calibrate._SignRows(n, B, RngStream(3, (n,)))
    assert len(rows) == B
    cols = slice(n // 2, n)
    for lo, hi in ((0, 1), (1, 7), (7, B // 3), (B // 3, B)):
        assert np.array_equal(rows[lo:hi, cols], want[lo:hi, cols])
    assert np.array_equal(rows[0:2, :], want[:2])  # rows already drawn are not drawn again
    assert rows[:, :].dtype == np.int8 and np.array_equal(rows[:, :], want)


def test_a_stopped_replication_draws_only_the_rows_it_evaluates(monkeypatch):
    n, B = 500, 500
    ((_, chunk, blocks),) = core.resample_plan(n, B)[0]
    made = []

    class Kept(calibrate._SignRows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(calibrate, "_SignRows", Kept)
    rows = _count_form_rows(monkeypatch)
    null = Sample(np.random.default_rng(3).standard_normal((n, 10)))
    assert not calibrate._rejects(null, RngStream(4), 0.05, B)
    evaluated = sum(rows) // len(blocks) - 1  # each block's all-ones row, then its sign rows
    assert 0 < evaluated < B and evaluated % chunk == 0
    # the generator is exactly the evaluated rows' words past a fresh one
    (kept,) = made
    fresh = RngStream(4).child(1).generator().bit_generator
    fresh.random_raw(-(-evaluated * n // 2))
    assert kept._bits.state == fresh.state


def test_mc_pvalue_draws_the_same_signs_from_any_number_of_pass_workers(monkeypatch):
    # several tasks (tiles of 4 rows) of many chunks (panels of 64 signs per
    # tile): one worker draws the rows as its tasks reach them, several draw
    # them all on the calling thread first
    aug = _random_aug(22, n=21)
    monkeypatch.setattr(core, "TILE", 4)
    monkeypatch.setattr(core, "PANEL", 64)
    B = 300
    want = core.swap_values(aug, calibrate._draw_signs(21, B, RngStream(9)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(core, "blas_threads", lambda: workers)
            assert core.resample_plan(21, B)[1] == workers
            assert np.array_equal(calibrate._resample(aug, B, RngStream(9)), want)
            outcome = mc_pvalue(aug, B, RngStream(9))
            assert outcome.p_value == (np.count_nonzero(want[1:] >= core._tie_floor(want[0])) + 1) / (B + 1)
    finally:
        sys.setswitchinterval(interval)


def test_mc_pvalue_deterministic_and_validates_B():
    aug = _random_aug(11)
    a = mc_pvalue(aug, 50, RngStream(5))
    b = mc_pvalue(aug, 50, RngStream(5))
    assert a == b
    with pytest.raises(ValueError):
        mc_pvalue(aug, 0, RngStream(5))


def test_mc_pvalue_monotone_in_statistic():
    # with the resample pool held fixed, a larger observed value can only
    # lower the exceedance count
    aug = _random_aug(12, n=15)
    from spheresym.calibrate import _draw_signs

    values = swap_statistic(aug, _draw_signs(15, 200, RngStream(6)))
    stats = np.sort(values)[[20, 100, 180]]
    ps = [(int((values >= s).sum()) + 1) / 201 for s in stats]
    assert ps[0] >= ps[1] >= ps[2]


def test_critical_value_quantile_and_bound():
    aug = _random_aug(13, n=21)
    from spheresym.calibrate import _draw_signs

    values = swap_statistic(aug, _draw_signs(21, 400, RngStream(7)))
    got = critical_value(aug, 0.05, 400, RngStream(7))
    rank = math.ceil(400 * 0.95) - 1
    assert got == np.sort(values)[rank]
    assert got <= cutoff_bound(21, 0.05)
    # alpha -> 1 returns the smallest resampled value
    assert critical_value(aug, 0.999, 400, RngStream(7)) == values.min()


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


def test_test_outcome_derives_its_decision_and_bound():
    s = Sample(np.random.default_rng(14).standard_normal((20, 4)))
    a = run_test(s, RngStream(21), alpha=0.05, B=100)
    assert list(a.to_dict()) == [
        "statistic", "p_value", "method", "alpha", "reject", "c_alpha_bound",
        "n", "d", "B", "seed", "center",
    ]
    for p in (0.01, 0.05, 0.5):
        b = dataclasses.replace(a, p_value=p)
        assert b.reject == (p < 0.05)
        assert b.c_alpha_bound == a.c_alpha_bound
    c = dataclasses.replace(a, alpha=0.1, n=41)
    assert c.reject == (a.p_value < 0.1) and c.c_alpha_bound == cutoff_bound(41, 0.1)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(a, reject=not a.reject)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 1.5"):
        dataclasses.replace(a, alpha=1.5)


def test_run_test_exact_mode():
    s = Sample(np.random.default_rng(15).standard_normal((8, 2)))
    out = run_test(s, RngStream(3), exact=True)
    assert out.method == "exact"
    assert out.p_value >= 2.0 ** (1 - 8)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, math.nan, 1.5])
def test_bad_alpha_is_refused_before_any_centering_drawing_or_enumeration(monkeypatch, alpha):
    aug = _random_aug(18, n=6)

    def work(*args, **kwargs):
        raise AssertionError("work started before alpha was checked")

    for name in ("center", "augment", "_SignRows", "one_tile", "swap_values"):
        monkeypatch.setattr(calibrate, name, work)
    calls = [
        lambda: run_test(aug.original, RngStream(0), alpha=alpha),
        lambda: run_test(aug.original, RngStream(0), alpha=alpha, exact=True),
        lambda: mc_pvalue(aug, 10, RngStream(0), alpha=alpha),
        lambda: exact_pvalue(aug, alpha=alpha),
        lambda: critical_value(aug, alpha, 10, RngStream(0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            call()


def test_run_test_rejects_single_row():
    with pytest.raises(ValueError):
        run_test(Sample(np.zeros((1, 2))), RngStream(0))


def test_observed_statistic_ties_with_identity_mask():
    # guards the tie-counting convention: the enumeration must always count
    # the identity and the full swap
    for seed in range(5):
        aug = _random_aug(seed + 30, n=9)
        obs = swap_statistic(aug, np.ones(9))
        ones = swap_statistic(aug, np.ones((1, 9)))[0]
        zeros = swap_statistic(aug, -np.ones((1, 9)))[0]
        assert obs == ones == zeros
        assert obs == core.swap_values(aug)[0]
        g = core.gram_tile(aug, slice(0, 9), slice(0, 9))
        assert obs == pytest.approx(float(g.sum()) / (9 * 8), abs=1e-14)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("B", [1, 19, 99, 500])
def test_stop_count_is_where_mc_pvalue_stops_rejecting(monkeypatch, alpha, B):
    stop = calibrate._stop_count(B, alpha)
    aug = _random_aug(20, n=2)
    for c in range(B + 1):
        # an observed value of 0 and c resampled values that tie with or exceed it
        values = np.concatenate([[0.0], np.ones(c), -np.ones(B - c)])
        monkeypatch.setattr(calibrate, "swap_values", lambda *args: values)
        assert mc_pvalue(aug, B, RngStream(0), alpha=alpha).reject == (c < stop)
        assert calibrate._rejects(aug.original, RngStream(0), alpha, B) == (c < stop)


def test_stop_counts_at_five_percent():
    # B = 1 and 19 cannot reject at 5%: the pass may stop after the observed value
    assert [calibrate._stop_count(B, 0.05) for B in (1, 19, 99, 500)] == [0, 0, 4, 25]


def _count_form_rows(monkeypatch):
    """The rows of every product core._forms evaluates, one entry per call."""
    rows, forms = [], core._forms

    def counted(left, g, right, out, product):
        rows.append(len(out))
        return forms(left, g, right, out, product)

    monkeypatch.setattr(core, "_forms", counted)
    return rows


def test_a_study_decision_evaluates_only_the_resamples_it_needs(monkeypatch):
    n, B = 500, 500
    # one diagonal task of ten upper 128-row blocks; chunks of 131 sign rows
    ((_, chunk, blocks),) = core.resample_plan(n, B)[0]
    assert (chunk, len(blocks)) == (131, 10)
    null = Sample(np.random.default_rng(3).standard_normal((n, 10)))
    off_centre = Sample(null.data + 3.0)
    assert not run_test(null, RngStream(4), 0.05, B).reject
    assert run_test(off_centre, RngStream(4), 0.05, B).reject
    rows = _count_form_rows(monkeypatch)
    assert not calibrate._rejects(null, RngStream(4), 0.05, B)
    evaluated = sum(rows) // len(blocks) - 1  # each block's all-ones row, then its sign rows
    assert 0 < evaluated < B and evaluated % chunk == 0
    rows.clear()
    assert calibrate._rejects(off_centre, RngStream(4), 0.05, B)
    assert sum(rows) == len(blocks) * (1 + B)  # a rejecting replication evaluates every resample
