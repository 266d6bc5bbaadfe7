"""Swap-resampling calibration: resampled statistics, p-values, decisions.

A resample is indexed by a bit mask pi in {0,1}^n: bit 1 keeps the pair
(X_i, X'_i) as is, bit 0 swaps it.  Because the pair kernel g changes sign
when exactly one of its two pairs is swapped, the resampled statistic is the
signed quadratic form

    zeta_hat(pi) = s^T G s / (n (n-1)),   s_i = 2 pi_i - 1 in {+1, -1},

where G is the cached n x n matrix of pairwise g values.  The observed value
and every resample go through ``core.swap_statistic``.  This turns every
resample into a matrix product over cached entries with zero kernel
re-evaluation.  In exact arithmetic the identity mask and the full swap tie
with the observed statistic; a one-row product and the same row inside a
batch may still differ in the last bits, which the tie guard absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .augment import augment, center
from .core import GramCache, Sample, build_gram, swap_statistic, zeta_hat
from .rng import RngStream

DEFAULT_B = 500
DEFAULT_ALPHA = 0.05
ENUM_LIMIT = 20
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SwapMask:
    """A length-n bit vector selecting per-index swaps."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError("mask must be one-dimensional")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.int8))

    def complement(self) -> "SwapMask":
        return SwapMask(1 - self.bits)


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    p_value: float
    method: str  # "exact" or "monte-carlo"
    alpha: float
    reject: bool
    c_alpha_bound: float
    n: int
    d: int
    B: int | None = None
    seed: int | None = None
    center: str = "none"

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.reject != (self.p_value < self.alpha):
            raise ValueError("decision inconsistent with p-value")

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "B": self.B,
            "alpha": self.alpha,
            "reject": self.reject,
            "n": self.n,
            "d": self.d,
            "seed": self.seed,
            "center": self.center,
            "c_alpha_bound": self.c_alpha_bound,
        }


def cutoff_bound(n: int, alpha: float) -> float:
    """Deterministic bound 2 / (alpha (n - 1)) on the resampling cutoff."""
    return 2.0 / (alpha * (n - 1))


def _batch_values(cache: GramCache, bits: np.ndarray) -> np.ndarray:
    """Resampled statistics for a (m, n) array of bit masks."""
    return swap_statistic(cache, 2.0 * bits - 1.0)


def resample_statistic(cache: GramCache, mask: SwapMask) -> float:
    """Statistic after swapping pairs per the mask."""
    return swap_statistic(cache, 2.0 * mask.bits - 1.0)


def _count_ties_or_exceed(values: np.ndarray, obs: float) -> int:
    # ">=" in exact arithmetic; the guard absorbs accumulation-order noise so
    # structural ties (identity mask, full swap) are never lost to the last bit
    guard = 1e-12 * max(1.0, abs(obs))
    return int((values >= obs - guard).sum())


def exact_pvalue(cache: GramCache, alpha: float = DEFAULT_ALPHA, enum_limit: int = ENUM_LIMIT) -> TestOutcome:
    """p-value by full enumeration of all 2^n masks."""
    n = cache.n
    if n > enum_limit:
        raise ValueError(
            f"exact enumeration needs n <= {enum_limit} (2^n resamples); got n = {n}"
        )
    obs = swap_statistic(cache, np.ones(n))
    total = 1 << n
    count = 0
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        bits = ((idx[:, None] >> shifts) & 1).astype(float)
        values = _batch_values(cache, bits)
        count += _count_ties_or_exceed(values, obs)
    p = count / total
    return TestOutcome(
        statistic=obs,
        p_value=p,
        method="exact",
        alpha=alpha,
        reject=p < alpha,
        c_alpha_bound=cutoff_bound(n, alpha),
        n=n,
        d=cache.d,
    )


def _draw_masks(n: int, B: int, rng: RngStream) -> np.ndarray:
    # i.i.d. uniform masks; repeats and the identity mask are allowed
    return rng.generator().integers(0, 2, size=(B, n)).astype(float)


def mc_pvalue(cache: GramCache, B: int, rng: RngStream, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """Randomized p-value (count + 1) / (B + 1) over B uniform masks."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    n = cache.n
    obs = swap_statistic(cache, np.ones(n))
    values = _batch_values(cache, _draw_masks(n, B, rng))
    p = (_count_ties_or_exceed(values, obs) + 1) / (B + 1)
    return TestOutcome(
        statistic=obs,
        p_value=p,
        method="monte-carlo",
        alpha=alpha,
        reject=p < alpha,
        c_alpha_bound=cutoff_bound(n, alpha),
        n=n,
        d=cache.d,
        B=B,
        seed=rng.seed,
    )


def critical_value(cache: GramCache, alpha: float, B: int, rng: RngStream) -> float:
    """Empirical (1 - alpha)-quantile of B resampled statistics.

    Diagnostic only; the test decision uses the p-value.  The observed
    statistic is not included in the quantile pool.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    values = np.sort(_batch_values(cache, _draw_masks(cache.n, B, rng)))
    # smallest t with empirical cdf >= 1 - alpha
    rank = int(np.ceil(B * (1.0 - alpha)))
    rank = max(rank, 1)
    return float(values[rank - 1])


def run_test(
    sample: Sample,
    rng: RngStream,
    alpha: float = DEFAULT_ALPHA,
    B: int = DEFAULT_B,
    center_mode: str = "none",
    exact: bool = False,
    enum_limit: int = ENUM_LIMIT,
) -> TestOutcome:
    """Full pipeline: center, augment, cache, statistic, calibrated decision."""
    if sample.n < 2:
        raise ValueError("test needs at least two observations")
    centered = center(sample, mode=center_mode)
    aug = augment(centered, rng.child(0))
    cache = build_gram(aug)
    zeta_hat(aug, cache)  # validates and bounds the statistic
    if exact:
        outcome = exact_pvalue(cache, alpha=alpha, enum_limit=enum_limit)
    else:
        outcome = mc_pvalue(cache, B, rng.child(1), alpha=alpha)
    return replace(outcome, seed=rng.seed, center=center_mode)
