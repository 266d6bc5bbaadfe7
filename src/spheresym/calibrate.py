"""Swap-resampling calibration: resampled statistics, p-values, decisions.

A resample is a sign vector s in {+1, -1}^n: s_i = +1 keeps the pair
(X_i, X'_i) as is, s_i = -1 swaps it.  Because the pair kernel g changes sign
when exactly one of its two pairs is swapped, the resampled statistic is the
signed quadratic form

    s^T G s / (n (n-1)),

where G is the n x n matrix of pairwise g values; s and its complement -s
give the same value.  Every p-value is computed from the augmented sample
itself (``core.AugmentedSample``).  The observed value and all B Monte
Carlo resamples come from one pass over G's tiles (``core.swap_values``),
which builds each upper tile once and holds no n x n array; the exact
enumeration (n <= 26) builds G as one tile and assembles the same quadratic
forms from two half-tables of sign vectors (``exact_pvalue``).  In exact arithmetic the
all-ones vector and the full swap tie with the observed statistic;
differently ordered sums of the same value may still differ in the last
bits, which the tie guard absorbs.  A study keeps only the decision, so
its pass may stop once enough resamples reach the observed value that the
test cannot reject (``_rejects``); ``run_test`` and ``mc_pvalue`` always
evaluate all B.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .augment import augment, center
from .core import AugmentedSample, Sample, _tie_floor, one_tile, resample_plan, swap_values
from .rng import RngStream

DEFAULT_B = 500
DEFAULT_ALPHA = 0.05
ENUM_LIMIT = 26
_TILE_BYTES = 1 << 20  # per-tile memory of the exact enumeration
# int64 buffer per chunk of the sign draw: under glibc malloc's initial 128 KB
# mmap threshold, so each chunk reuses heap memory (1 MB chunks raised the
# peak RSS of a run over n = 50 to 500, B = 500, by 1.8 MB)
_DRAW_BYTES = 120 << 10


@dataclass(frozen=True)
class TestOutcome:
    """A p-value with its decision (reject when p < alpha) and the cutoff bound, both derived."""

    statistic: float
    p_value: float
    method: str  # "exact" or "monte-carlo"
    alpha: float
    reject: bool = field(init=False)
    c_alpha_bound: float = field(init=False)
    n: int
    d: int
    B: int | None = None
    seed: int | None = None
    center: str = "none"

    def __post_init__(self):
        _check_alpha(self.alpha)
        object.__setattr__(self, "reject", self.p_value < self.alpha)
        object.__setattr__(self, "c_alpha_bound", cutoff_bound(self.n, self.alpha))

    def to_dict(self) -> dict:
        return asdict(self)


def _check_alpha(alpha: float) -> None:
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_B(B: int) -> None:
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")


def _check_enum_size(n: int) -> None:
    if n > ENUM_LIMIT:
        raise ValueError(f"exact enumeration needs n <= {ENUM_LIMIT} (2^n resamples); got n = {n}")


def _cannot_reject(alpha: float, B: int, n: int | None = None) -> str | None:
    """Why no p-value can fall below alpha, or None when one can; exact enumeration when n is given.

    A Monte Carlo p-value is at least 1 / (B + 1) and an exact one at least
    2^(1 - n) (the observed value and its full swap).  The test rejects when
    p < alpha, so at or below that floor it cannot; compared in the floats
    the decision uses.  For a note, not a refusal: such a test still runs.
    """
    if n is not None:
        floor, why = 2 / (1 << n), f"an exact p-value at n = {n} is at least 2^(1-n)"
    else:
        floor, why = 1 / (B + 1), "a Monte Carlo p-value is at least 1/(B + 1)"
    if floor < alpha:
        return None
    return f"{why} = {floor:.6g}, not below alpha = {alpha:g}, so the test cannot reject"


def cutoff_bound(n: int, alpha: float) -> float:
    """Deterministic bound 2 / (alpha (n - 1)) on the resampling cutoff."""
    return 2.0 / (alpha * (n - 1))


def _count_ties_or_exceed(values: np.ndarray, obs: float) -> int:
    return int(np.count_nonzero(values >= _tie_floor(obs)))


def _least_scaled(floor: float, norm: int) -> float:
    """The least float t with fl(t / norm) >= floor, for norm > 0.

    Correctly rounded division by norm > 0 is monotone, so x >= t exactly
    when fl(x / norm) >= floor: comparing the unnormalised values with t
    counts what dividing them first would.  t is found by single steps from
    fl(floor * norm), which is at most a few floats away.
    """
    t = floor * norm
    while t / norm >= floor:
        t = math.nextafter(t, -math.inf)
    while t / norm < floor:
        t = math.nextafter(t, math.inf)
    return t


def _count_at_least(values: np.ndarray, t: float, mask: np.ndarray) -> int:
    """Entries of ``values`` that are >= t, compared into the bool buffer ``mask`` of its shape."""
    return int(np.count_nonzero(np.greater_equal(values, t, out=mask)))


def _sign_table(k: int) -> np.ndarray:
    """All 2^k sign vectors of length k, one per row; row r has s_j = -1 where bit j of r is set."""
    codes = np.arange(1 << k)[:, None]
    return 1.0 - 2.0 * ((codes >> np.arange(k)) & 1)


def _signed_sums(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j s_j w[j] for every sign row s of ``_sign_table(len(w))``, one per row.

    Built by doubling: the rows with bit j set are the rows without it,
    minus 2 w[j].  One add per entry, no matrix product.  Written into
    ``out`` (2^len(w) x w.shape[1]) when given.
    """
    if out is None:
        out = np.empty((1 << len(w), w.shape[1]))
    out[0] = w.sum(axis=0)
    for j in range(len(w)):
        np.subtract(out[: 1 << j], 2.0 * w[j], out=out[1 << j: 2 << j])
    return out


def _branch_sums(w: np.ndarray, base: np.ndarray):
    """Yield base + sum_j s_j w[j] for the sign rows of ``_sign_table(len(w))``, in row order."""
    if len(w) == 0:
        yield base
        return
    yield from _branch_sums(w[:-1], base + w[-1])
    yield from _branch_sums(w[:-1], base - w[-1])


# Per-thread buffers of exact_pvalue's tiles, kept between calls (see _tile_buffers).
_workspace = threading.local()


def _tile_buffers(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three (rows, cols) views for ``exact_pvalue``: cross sums, tile values, comparison mask.

    They view this thread's flat buffers, which only grow.  A fresh array of
    this size per call would go back to the system when freed and fault in
    its pages again on the next call; the kept ones fault only when first
    touched.  Every entry is written before it is read.
    """
    size = rows * cols
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = _workspace.buffers = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))
    return tuple(b[:size].reshape(rows, cols) for b in buffers)


def exact_pvalue(aug: AugmentedSample, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """p-value by full enumeration of all 2^n masks, met in the middle.

    Since value(s) = value(-s), only the 2^(n-1) masks that keep one pair are
    evaluated, each counted twice.  The indices split into halves A (holding
    the kept pair) and B, and

        s^T G s = qA[a] + qB[b] + sA^T W[:, b],   W = (G_AB + G_BA^T) S_B^T,

    where qA, qB are the quadratic forms over the half-tables of sign vectors.
    The cross terms sA^T W for all sA are signed sums of the rows of W: the
    low pairs of A are summed by doubling into one tile of at most
    ``_TILE_BYTES``, the high pairs give one row offset per tile.  Each value
    then costs a few elementwise adds.  There is no matrix product, so no
    BLAS threads: a thread that waits for a busy CPU would stall the whole
    product, and the run time would follow the machine's other load.  Tiles
    are counted one by one, unnormalised, against the least value whose
    normalised value reaches the tie guard (``_least_scaled``), so the counts
    are those of dividing every value by n (n - 1) first.  The tile, its
    cross sums and its mask live in this thread's kept buffers
    (``_tile_buffers``).
    """
    _check_alpha(alpha)
    n = aug.n
    _check_enum_size(n)
    g, obs = one_tile(aug)
    a = (n + 1) // 2  # A = pairs 0..a-1, B = pairs a..n-1; pair a-1 is kept
    half = 1 << (a - 1)  # the rows of A's sign table that keep pair a-1
    # G s for every half sign vector s, then s^T (G s)
    qa = np.einsum("ij,ij->i", _signed_sums(g[:a, :a].T)[:half], _sign_table(a)[:half])
    qb = np.einsum("ij,ij->i", _signed_sums(g[a:, a:].T), _sign_table(n - a))
    w = np.ascontiguousarray(_signed_sums((g[:a, a:] + g[a:, :a].T).T).T)
    # a tile holds 8-byte values plus their 1-byte comparison mask
    fit = max(1, _TILE_BYTES // (9 * w.shape[1]))
    low = min(a - 1, fit.bit_length() - 1)  # pairs 0..low-1 vary inside a tile
    rows = 1 << low
    cross, tile, mask = _tile_buffers(rows, w.shape[1])
    _signed_sums(w[:low], out=cross)
    floor = _least_scaled(_tie_floor(obs), n * (n - 1))
    count = 0
    for h, offset in enumerate(_branch_sums(w[low:a - 1], w[a - 1] + qb)):
        np.add(cross, offset, out=tile)
        tile += qa[h * rows:(h + 1) * rows, None]
        count += _count_at_least(tile, floor, mask)
    return TestOutcome(statistic=obs, p_value=2 * count / (1 << n), method="exact", alpha=alpha,
                       n=n, d=aug.d)


def _draw_signs(n: int, B: int, rng: RngStream) -> np.ndarray:
    """B i.i.d. uniform masks as (B, n) int8 signs s = 2 * bit - 1.

    Repeats and the identity mask are allowed.  The rows are drawn from one
    generator in chunks of at most ``_DRAW_BYTES`` of int64 (or one row);
    the generator's stream runs on across calls, so the signs are bit for
    bit those of one (B, n) ``integers(0, 2)`` draw, and no B x n int64
    buffer is made.
    """
    gen = rng.generator()
    signs = np.empty((B, n), np.int8)
    step = max(1, _DRAW_BYTES // (8 * n))
    for lo in range(0, B, step):
        signs[lo:lo + step] = gen.integers(0, 2, size=(min(step, B - lo), n))
    signs <<= 1
    signs -= 1
    return signs


def _resample(aug: AugmentedSample, B: int, rng: RngStream, stop: int | None = None) -> np.ndarray:
    """The observed statistic, then those of B uniform masks drawn from ``rng``.

    All B masks are drawn; with ``stop``, the pass may end once ``stop`` of
    the values it has evaluated tie with or exceed the observed one, and
    returns those evaluated (``core.swap_values``).  A B < 1, or a pass that
    would not fit in memory, is refused before drawing.
    """
    _check_B(B)
    resample_plan(aug.n, B)
    return swap_values(aug, _draw_signs(aug.n, B, rng), stop)


def _stop_count(B: int, alpha: float) -> int:
    """The least count c of ties and exceedances at which (c + 1) / (B + 1) < alpha is false.

    ``mc_pvalue`` rejects exactly when the count is below it, with the same
    float test; the division is monotone in c, so the search steps from an
    estimate as ``_least_scaled`` does.
    """
    c = max(0, math.floor(alpha * (B + 1)) - 1)
    while c > 0 and not (c / (B + 1) < alpha):
        c -= 1
    while (c + 1) / (B + 1) < alpha:
        c += 1
    return c


def mc_pvalue(aug: AugmentedSample, B: int, rng: RngStream, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """Randomized p-value (count + 1) / (B + 1) over B uniform masks."""
    _check_alpha(alpha)
    values = _resample(aug, B, rng)
    obs = float(values[0])
    return TestOutcome(
        statistic=obs,
        p_value=(_count_ties_or_exceed(values[1:], obs) + 1) / (B + 1),
        method="monte-carlo",
        alpha=alpha,
        n=aug.n,
        d=aug.d,
        B=B,
        seed=rng.seed,
    )


def critical_value(aug: AugmentedSample, alpha: float, B: int, rng: RngStream) -> float:
    """Empirical (1 - alpha)-quantile of B resampled statistics.

    Diagnostic only; the test decision uses the p-value.  The observed
    statistic is not included in the quantile pool.
    """
    _check_alpha(alpha)
    values = np.sort(_resample(aug, B, rng)[1:])
    # smallest t with empirical cdf >= 1 - alpha
    rank = int(np.ceil(B * (1.0 - alpha)))
    rank = max(rank, 1)
    return float(values[rank - 1])


def _augmented(sample: Sample, rng: RngStream, alpha: float, center_mode: str) -> AugmentedSample:
    """``run_test``'s first steps: check alpha and n, center, augment from ``rng.child(0)``."""
    _check_alpha(alpha)
    if sample.n < 2:
        raise ValueError("test needs at least two observations")
    return augment(center(sample, mode=center_mode), rng.child(0))


def run_test(
    sample: Sample,
    rng: RngStream,
    alpha: float = DEFAULT_ALPHA,
    B: int = DEFAULT_B,
    center_mode: str = "none",
    exact: bool = False,
) -> TestOutcome:
    """Full pipeline: center, augment, then the calibrated p-value and decision."""
    aug = _augmented(sample, rng, alpha, center_mode)
    if exact:
        outcome = exact_pvalue(aug, alpha=alpha)
    else:
        outcome = mc_pvalue(aug, B, rng.child(1), alpha=alpha)
    return replace(outcome, seed=rng.seed, center=center_mode)


def _rejects(
    sample: Sample,
    rng: RngStream,
    alpha: float = DEFAULT_ALPHA,
    B: int = DEFAULT_B,
    center_mode: str = "none",
) -> bool:
    """``run_test(sample, rng, alpha, B, center_mode).reject``, resampling only until it is fixed.

    The same steps and the same B masks; the pass stops once ``_stop_count``
    resamples tie with or exceed the observed value, since no later one can
    make the test reject.  For studies, which keep only the decision.
    """
    aug = _augmented(sample, rng, alpha, center_mode)
    values = _resample(aug, B, rng.child(1), _stop_count(B, alpha))
    return (_count_ties_or_exceed(values[1:], float(values[0])) + 1) / (B + 1) < alpha
