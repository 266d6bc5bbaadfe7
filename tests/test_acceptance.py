"""Acceptance suite: end-to-end statistical behavior of the package.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).  The
statistical checks replay seeded studies, so reruns are bit-reproducible.
"""

import math

import numpy as np
import pytest

from spheresym import (
    AugmentedSample,
    CovSpec,
    HaarConfig,
    RngStream,
    Sample,
    augment,
    build_gram,
    critical_value,
    exact_pvalue,
    gaussian_zeta,
    mc_pvalue,
    mc_zeta,
    swap_statistic,
    zeta_hat,
)
from spheresym.calibrate import cutoff_bound
from spheresym.core import gram_tile
from spheresym.distributions import (
    Contaminated,
    FourComponentMixture,
    Gaussian,
    sample,
)
from spheresym.experiments import (
    Cell,
    ExperimentConfig,
    run_pitman_study,
    run_power_study,
)
from oracles import naive_exact_pvalue, naive_zeta, quadrature_gaussian_zeta_2d, swap_pairs


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {label}{suffix}")


# -- 1. level validity ------------------------------------------------------


def test_criterion_1_level_validity():
    config = ExperimentConfig(
        name="level",
        cells=(
            Cell(Gaussian(d=2), 20),
            Cell(Gaussian(d=32), 20),
            Cell(Gaussian(d=128), 40),
        ),
        R=500,
        B=500,
        alpha=0.05,
        seed=101,
    )
    records = run_power_study(config)
    rates = {(rec.n, rec.d): rec.power for rec in records}
    ok = all(0.02 <= rate <= 0.08 for rate in rates.values())
    _report(
        "criterion 1, level under spherical Gaussian",
        ok,
        ", ".join(f"(n={n},d={d})={r:.3f}" for (n, d), r in rates.items()),
    )
    assert ok, rates


# -- 2. local-alternative power table ---------------------------------------


def test_criterion_2_local_alternative_powers():
    recs0 = run_pitman_study(0.0, n_grid=(50, 100), R=500, B=500, seed=102)
    recs1 = run_pitman_study(0.1, n_grid=(100,), R=500, B=500, seed=103)
    recsm = run_pitman_study(-0.1, n_grid=(50, 500), R=500, B=500, seed=104)
    p50, p100 = recs0[0].power, recs0[1].power
    p100_g1 = recs1[0].power
    pm50, pm500 = recsm[0].power, recsm[1].power
    ok = (
        abs(p50 - 0.361) <= 0.07
        and abs(p100 - 0.375) <= 0.07
        and abs(p100_g1 - 0.932) <= 0.05
        and pm500 < pm50
    )
    _report(
        "criterion 2, local-alternative power table",
        ok,
        f"gamma=0: {p50:.3f}/{p100:.3f}; gamma=0.1 n=100: {p100_g1:.3f}; "
        f"gamma=-0.1: {pm50:.3f}>{pm500:.3f}",
    )
    assert ok


# -- 3. equicorrelation power spot-check ------------------------------------


def test_criterion_3_equicorrelation_power():
    config = ExperimentConfig(
        name="equicorr",
        cells=(Cell(Gaussian(d=5, rho=0.3), 100), Cell(Gaussian(d=5, rho=0.5), 100)),
        R=200,
        B=500,
        seed=105,
    )
    r03, r05 = run_power_study(config)
    se = math.sqrt(r03.std_error**2 + r05.std_error**2)
    ok = (
        abs(r03.power - 0.313) <= 0.10
        and abs(r05.power - 0.927) <= 0.06
        and r05.power >= r03.power - 2 * se
    )
    _report(
        "criterion 3, equicorrelation power",
        ok,
        f"rho=0.3: {r03.power:.3f}, rho=0.5: {r05.power:.3f}",
    )
    assert ok


# -- 4. four-component mixture power ----------------------------------------


def test_criterion_4_mixture_power():
    config = ExperimentConfig(
        name="mixture4",
        cells=(Cell(FourComponentMixture(), 100),),
        R=200,
        B=500,
        seed=106,
    )
    (rec,) = run_power_study(config)
    ok = abs(rec.power - 0.94) <= 0.06
    _report("criterion 4, four-component mixture power", ok, f"power={rec.power:.3f}")
    assert ok


# -- 5. Gaussian oracle consistency -----------------------------------------


def test_criterion_5_gaussian_oracle_consistency():
    exact_zero = all(
        gaussian_zeta(CovSpec(c * np.eye(4)), 4) == (0.0, 0.0) for c in (0.1, 1.0, 10.0)
    )
    sigma = np.diag([4.0, 1.0])
    est, se = gaussian_zeta(CovSpec(sigma), 2, HaarConfig(m=100_000, seed=107))
    want = quadrature_gaussian_zeta_2d(sigma, k=200)
    ok = exact_zero and abs(est - want) <= 3 * se
    _report(
        "criterion 5, Gaussian oracle vs angle quadrature",
        ok,
        f"haar={est:.6f}+-{se:.6f}, quadrature={want:.6f}",
    )
    assert ok


# -- 6. unbiasedness of the statistic ---------------------------------------


def test_criterion_6_unbiasedness():
    n, d, reps = 50, 5, 2000
    spec = Gaussian(d=d, rho=0.5)
    values = np.empty(reps)
    for r in range(reps):
        rng = RngStream(108, (r,))
        s = sample(spec, n, rng.child(0))
        aug = augment(s, rng.child(1))
        values[r] = zeta_hat(aug, build_gram(aug)).value
    mean = values.mean()
    se_mean = values.std(ddof=1) / math.sqrt(reps)
    target, se_t = gaussian_zeta(CovSpec(spec.covariance()), d, HaarConfig(m=100_000, seed=109))
    combined = math.hypot(se_mean, se_t)
    ok = abs(mean - target) <= 3 * combined
    _report(
        "criterion 6, unbiasedness of the estimator",
        ok,
        f"mean={mean:.6f}, oracle={target:.6f}, 3se={3 * combined:.6f}",
    )
    assert ok


# -- 7. contamination identity ----------------------------------------------


def test_criterion_7_contamination_identity():
    f = Gaussian(d=2, sigma=np.diag([4.0, 1.0]))
    g = Gaussian(d=2)
    zf, se_f = gaussian_zeta(CovSpec(np.diag([4.0, 1.0])), 2, HaarConfig(m=100_000, seed=110))
    details = []
    ok = True
    for i, delta in enumerate((0.25, 0.5)):
        est, se = mc_zeta(
            Contaminated(delta, f, g), n_big=200, reps=200, rng=RngStream(111, (i,))
        )
        target = (1.0 - delta) ** 2 * zf
        combined = math.hypot(se, (1.0 - delta) ** 2 * se_f)
        ok = ok and abs(est - target) <= 3 * combined
        details.append(f"delta={delta}: {est:.5f} vs {target:.5f}")
    _report("criterion 7, contamination scaling identity", ok, "; ".join(details))
    assert ok


# -- 8. exact vs Monte Carlo p-values ---------------------------------------


def test_criterion_8_exact_vs_monte_carlo():
    n = 10
    s = Sample(np.random.default_rng(112).standard_normal((n, 3)))
    aug = augment(s, RngStream(113))
    cache = build_gram(aug)
    p_exact = exact_pvalue(cache).p_value
    p_naive = naive_exact_pvalue(aug.original.data, aug.variant)
    p_mc = mc_pvalue(cache, 50_000, RngStream(114)).p_value
    ok = abs(p_mc - p_exact) <= 0.01 and abs(p_exact - p_naive) <= 1e-12
    _report(
        "criterion 8, exact vs Monte Carlo p-value",
        ok,
        f"exact={p_exact:.5f}, mc={p_mc:.5f}, naive={p_naive:.5f}",
    )
    assert ok


# -- 9. deterministic cutoff bound ------------------------------------------


def test_criterion_9_cutoff_bound():
    runs = 0
    violations = 0
    gen = np.random.default_rng(115)
    for n in (5, 8, 12, 16, 21, 30, 41):
        for alpha in (0.01, 0.05, 0.1, 0.2):
            for rep in range(360):
                s = Sample(gen.standard_normal((n, 3)))
                rng = RngStream(116, (n, rep))
                cache = build_gram(augment(s, rng.child(0)))
                c = critical_value(cache, alpha, 32, rng.child(1))
                violations += c > cutoff_bound(n, alpha)
                runs += 1
    ok = violations == 0 and runs >= 10_000
    _report(
        "criterion 9, resampling cutoff bound",
        ok,
        f"{runs} runs, {violations} violations",
    )
    assert ok


# -- 10. structural invariants ----------------------------------------------


def whole_g(cache):
    """G read as one block of the tile function."""
    return gram_tile(cache, slice(0, cache.n), slice(0, cache.n))


def test_criterion_10_structural_invariants():
    gen = np.random.default_rng(117)
    trials = 1000

    anti = full_swap = complement = rotation = naive_ok = 0
    for t in range(trials):
        n, d = int(gen.integers(3, 8)), int(gen.integers(1, 5))
        s = Sample(gen.standard_normal((n, d)))
        aug = augment(s, RngStream(118, (t,)))
        cache = build_gram(aug)
        stat = zeta_hat(aug, cache).value

        # swapping pair t % n turns G into D G D, D = diag(signs)
        signs = np.ones(n)
        signs[t % n] = -1.0
        swapped = whole_g(build_gram(swap_pairs(aug, signs)))
        anti += np.abs(swapped - signs[:, None] * whole_g(cache) * signs).max() <= 1e-12

        full_swap += abs(swap_statistic(cache, -np.ones(n)) - stat) <= 1e-12

        signs = 2.0 * gen.integers(0, 2, size=n) - 1.0
        a = swap_statistic(cache, signs)
        b = swap_statistic(cache, -signs)
        complement += abs(a - b) <= 1e-12

        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        rot = AugmentedSample(original=Sample(aug.original.data @ q.T), variant=aug.variant @ q.T)
        rotation += abs(zeta_hat(rot, build_gram(rot)).value - stat) <= 1e-12

        naive_ok += abs(naive_zeta(aug.original.data, aug.variant) - stat) <= 1e-12

    counts = {
        "antisymmetry": anti,
        "full-swap": full_swap,
        "complement": complement,
        "rotation": rotation,
        "naive-agreement": naive_ok,
    }
    ok = all(c == trials for c in counts.values())
    _report(
        "criterion 10, structural invariant suite",
        ok,
        ", ".join(f"{k}={v}/{trials}" for k, v in counts.items()),
    )
    assert ok, counts
