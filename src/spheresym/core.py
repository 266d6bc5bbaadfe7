"""Kernel evaluation, the pair values and the pairwise asymmetry statistic.

The statistic is the average, over all pairs of augmented observations
(X_i, X'_i), (X_j, X'_j), of the four-term Gaussian-kernel combination

    g = K(X_i, X_j) + K(X'_i, X'_j) - K(X_i, X'_j) - K(X_j, X'_i)

with K(x, y) = exp(-||x - y||^2 / (2 d)).  The bandwidth is always the data
dimension d; there is no user-tunable bandwidth.

The observed statistic and every swap resample are signed quadratic forms
s^T G s / (n (n-1)) in the n x n matrix G of pair values g_ij (zero
diagonal), read from the :class:`AugmentedSample` itself, and no code
holds G.  :func:`swap_values` splits it into square tiles of ``TILE`` rows.
Each upper tile pair (I, J), J > I, is one block; each diagonal tile is
the upper pairs of its sub-blocks of ``BLOCK`` rows, since only one
triangle of G carries information.  Each upper tile pair is one task: it
builds its blocks of G (:func:`gram_tile`) into a store, then streams the
sign rows through them in chunks and takes each block's share
s_R^T G_RC s_C of every form (doubled off the diagonal).  The tasks run
through ``threads.fan_out`` on as many threads as numpy's BLAS is set to
use, which holds BLAS at one thread while more than one runs, and the shares
are summed in block order, so past one tile the values are the same bit
for bit on any thread count (a one-tile pass runs its products on BLAS's
own threads).  Besides the B x n signs, one byte each, and B + 1 shares
per block, a pass needs per thread a store for one task's blocks (at most
one tile's area), a scratch buffer for kernel blocks and products, and a
float64 panel of at most ``PANEL`` signs per tile: O(B n) memory in all,
n B bytes of it for the signs.  Each off-diagonal tile pair is evaluated once per
pass, and each diagonal tile in upper 128-row blocks (``BLOCK``), for the
observed value and all B resamples together: about 2 n^2 + 128 n kernel
entries and B (n^2 + 128 n) form flops per pass.  Every block is bit for
bit the block of the matrix a full 2n x 2n kernel matrix over the stacked
rows would give (``tests/oracles.py`` keeps that construction).

Squared distances come from scipy's compiled ``cdist_sqeuclidean``, the
routine that ``scipy.spatial.distance.cdist(a, b, "sqeuclidean", out=...)``
calls.  It is loaded from its extension file in the installed scipy, not
through ``scipy.spatial``, whose package init also loads ``scipy.sparse``,
qhull, the kd-trees and ``transform``: about 0.5 s and 36 MB in every
process that imports this package (:func:`_load_sqeuclidean`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .threads import blas_threads, fan_out

TILE = 512  # rows per Gram tile, one fan-out task per upper tile pair; at n <= TILE, one task
BLOCK = 128  # rows per block of a diagonal tile, which is built as its upper blocks
PANEL = 1 << 16  # float64 sign entries per tile in the panel a pass streams through a task's kept blocks


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of observations, rows = observations.

    Entries must be finite.  A single-row sample is accepted (its one Gram
    tile is well defined); the statistic itself requires n >= 2.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"sample needs n >= 1 rows and d >= 1 columns, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("sample contains NaN or Inf")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AugmentedSample:
    """Pairs (X_i, X'_i) where X'_i = ||X_i|| U_i lies on the same sphere shell.

    Every statistic and p-value is computed from this object.  Entries of
    ``variant`` must be finite, the row norms of both must be finite in
    float64, and the variant's match the original's (zero rows map to zero
    rows).  Construction lives in
    :func:`spheresym.augment.augment`.
    """

    original: Sample
    variant: np.ndarray

    def __post_init__(self):
        variant = np.asarray(self.variant, dtype=float)
        if variant.shape != self.original.data.shape:
            raise ValueError(
                f"variant shape {variant.shape} != original shape {self.original.data.shape}"
            )
        with np.errstate(over="ignore"):
            norm_o = np.linalg.norm(self.original.data, axis=1)
            norm_v = np.linalg.norm(variant, axis=1)
        # The original's norms first: augment pairs an overflowed one with an
        # infinite variant row, and the cause to report is the overflow.  An
        # overflowed variant norm then differs from the finite original one.
        if not np.isfinite(norm_o).all():
            raise ValueError(
                "row norms overflow float64 (data too large in magnitude); "
                "rescale the data, e.g. divide by its largest absolute entry"
            )
        if not np.isfinite(variant).all():
            raise ValueError("variant contains NaN or Inf")
        if not np.allclose(norm_v, norm_o, rtol=1e-9, atol=1e-300):
            raise ValueError("variant row norms do not match original row norms")
        object.__setattr__(self, "variant", variant)

    @property
    def n(self) -> int:
        return self.original.n

    @property
    def d(self) -> int:
        return self.original.d


def _physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS does not say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return pages * page_size


_DISTANCE_MODULE = "scipy.spatial._distance_pybind"


def _distance_extension_path() -> str | None:
    """The installed scipy's ``spatial/_distance_pybind`` extension file, or None; imports nothing."""
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy.submodule_search_locations or []) if scipy else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "spatial", "_distance_pybind" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_sqeuclidean():
    """scipy's compiled ``cdist_sqeuclidean(a, b, out=...)``, without importing ``scipy.spatial``.

    The extension needs only numpy.  It is loaded under its own module name
    and entered in ``sys.modules``, so a later ``import scipy.spatial`` reuses
    it, and one that came first is reused here.  Where the file is missing or
    does not load, the routine is public ``cdist``, which calls the same
    compiled code and so gives the same bits.
    """
    module = sys.modules.get(_DISTANCE_MODULE)
    path = None if module else _distance_extension_path()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_DISTANCE_MODULE, path)
        spec = importlib.util.spec_from_loader(_DISTANCE_MODULE, loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            module = None
        else:
            sys.modules[_DISTANCE_MODULE] = module
    routine = getattr(module, "cdist_sqeuclidean", None)
    if routine is None:
        from scipy.spatial.distance import cdist

        def routine(a, b, out):
            return cdist(a, b, "sqeuclidean", out=out)

    return routine


_sqeuclidean = _load_sqeuclidean()


def _kernel_tile(a: np.ndarray, b: np.ndarray, d: int, buf: np.ndarray) -> np.ndarray:
    """K(a, b), written into the front of the flat buffer ``buf``."""
    out = buf[: len(a) * len(b)].reshape(len(a), len(b))
    # Direct squared differences (not the norm-expansion identity): exact
    # cancellation for identical rows matters for the g = 0 identities.  The
    # routine is public cdist's "sqeuclidean" one, called without its wrapper.
    _sqeuclidean(a, b, out=out)
    out /= -(2.0 * d)
    return np.exp(out, out=out)


def gram_tile(aug: AugmentedSample, rows: slice, cols: slice, out=None, scratch=None) -> np.ndarray:
    """G's block (rows, cols), written into the front of the flat buffer ``out``.

    Every entry is summed as (Kxx + Kx'x') - E_ij - E_ji with E = K(X, X'),
    the kernel blocks evaluated in the flat buffer ``scratch``; both buffers
    need room for the block, and None gives a fresh one.  A diagonal block
    (rows == cols) evaluates E once and has a zero diagonal; an off-diagonal
    one evaluates E_ji as K(X'_rows, X_cols).  Squared distances are bit-for-bit
    symmetric, so any block is bit for bit that of the matrix derived from a
    full 2n x 2n kernel matrix.
    """
    x, v, d = aug.original.data, aug.variant, aug.d
    size = len(x[rows]) * len(x[cols])
    out = np.empty(size) if out is None else out
    scratch = np.empty(size) if scratch is None else scratch
    g = _kernel_tile(x[rows], x[cols], d, out)
    g += _kernel_tile(v[rows], v[cols], d, scratch)
    e = _kernel_tile(x[rows], v[cols], d, scratch)
    g -= e
    if rows == cols:
        g -= e.T
        np.fill_diagonal(g, 0.0)
    else:
        g -= _kernel_tile(v[rows], x[cols], d, scratch)
    return g


def _spans(start: int, stop: int, step: int) -> list[slice]:
    """[start, stop) cut into slices of ``step`` rows, the last one ragged."""
    return [slice(a, min(a + step, stop)) for a in range(start, stop, step)]


def _area(rows: slice, cols: slice) -> int:
    return (rows.stop - rows.start) * (cols.stop - cols.start)


def resample_plan(n: int, B: int):
    """Fan-out tasks, thread count and per-thread buffer sizes of a pass over B sign vectors.

    Each upper tile pair of ``TILE`` rows is one task (spans, chunk,
    blocks): the sign columns it reads, as one tile (diagonal) or two
    (off-diagonal); the sign rows it streams at a time, as many as
    ``PANEL`` entries per tile hold (at least one); and its
    blocks (index, rows, cols), numbered in task order: an off-diagonal tile
    pair is one block, a diagonal tile the upper pairs of its ``BLOCK``-row
    sub-blocks.  A pass holds the B x n signs at one byte each, B + 1 shares
    per block and, per thread, a store for all the blocks of one task (at
    most one tile's area; one block's at B = 0), one scratch buffer for a
    block's kernel blocks and for its products with a chunk of signs, and
    the float64 panel of a chunk's sign columns.  One that would not fit in
    physical memory is refused; the count uses Python integers only, so a
    refused size allocates nothing.
    """
    tiles = _spans(0, n, TILE)
    groups = []
    for i, rows in enumerate(tiles):
        subs = _spans(rows.start, rows.stop, BLOCK)
        groups.append(([rows], [(a, b) for k, a in enumerate(subs) for b in subs[k:]]))
        groups.extend(([rows, cols], [(rows, cols)]) for cols in tiles[i + 1:])
    tasks, blocks, sizes = [], 0, (0, 0, 0)
    for spans, group in groups:
        width = sum(span.stop - span.start for span in spans)
        chunk = max(1, min(B, PANEL // max(span.stop - span.start for span in spans)))
        tasks.append((spans, chunk, [(blocks + k, rows, cols) for k, (rows, cols) in enumerate(group)]))
        blocks += len(group)
        areas = [_area(r, c) for r, c in group]
        # with no sign rows to stream, a block is dropped once its all-ones share is taken
        store = sum(areas) if B else max(areas)
        scratch = max(max(areas), chunk * max(c.stop - c.start for _, c in group))
        sizes = tuple(map(max, sizes, (store, scratch, chunk * width)))
    workers = min(blas_threads(), len(tasks))
    need = B * n + 8 * (blocks * (B + 1) + workers * sum(sizes))
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"resampling n = {n} pairs with B = {B} sign vectors needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    return tasks, workers, sizes


def _forms(left: np.ndarray, g: np.ndarray, right: np.ndarray, out: np.ndarray, product) -> None:
    """Row-by-row s^T G t for the rows s of ``left`` and t of ``right``, through ``product``."""
    np.einsum("ij,ij->i", np.matmul(left, g, out=product), right, out=out)


def _on_panel(part: slice, spans: list[slice]) -> slice:
    """Where sign columns ``part``, inside one of ``spans``, sit on a panel of the spans side by side."""
    at = 0
    for span in spans:
        if part.start < span.stop:
            break
        at += span.stop - span.start
    return slice(at + part.start - span.start, at + part.stop - span.start)


def _tie_floor(obs: float) -> float:
    """The least value counted as a tie with or an exceedance of ``obs``.

    ">=" in exact arithmetic; the guard absorbs accumulation-order noise so
    structural ties (identity mask, full swap) are never lost to the last bit.
    """
    return obs - 1e-12 * max(1.0, abs(obs))


def _statistics(shares: np.ndarray, n: int) -> np.ndarray:
    """The rows of ``shares`` summed in block order, over n (n - 1); a value outside [-2, 2] is refused."""
    if n < 2:
        raise ValueError("statistic needs at least two observations")
    values = shares[0].copy()
    for row in shares[1:]:  # in block order; sum(axis=0) sums one column pairwise
        values += row
    values /= n * (n - 1)
    if not (np.abs(values) <= 2.0 + 1e-12).all():
        raise ValueError(f"statistic out of range [-2, 2]: {values[np.argmax(np.abs(values))]}")
    return values


def swap_values(aug: AugmentedSample, signs: np.ndarray | None = None, stop: int | None = None) -> np.ndarray:
    """The observed statistic, then s^T G s / (n (n-1)) for each row s of ``signs``, in one pass.

    ``signs`` is a (B, n) array of +1/-1 entries of any dtype (int8 from
    the sign draw, float from :func:`swap_statistic`), which are not checked
    here; None stands for B = 0.  Each task builds all its blocks of G into
    its thread's store and takes their all-ones shares, then streams the
    sign rows in chunks: a chunk's columns of the task are copied into the
    thread's float64 panel, and every kept block writes its shares of that
    chunk's forms.  Shares off the diagonal are doubled, for the mirror
    block.  Each block's shares go to its own row of a (blocks x (B + 1))
    array, summed in block order.  A value outside [-2, 2] is refused.

    With ``stop``, a one-task pass (n <= ``TILE``) ends between chunks once
    ``stop`` of the values it has evaluated reach the observed value's tie
    floor (:func:`_tie_floor`; at ``stop`` = 0, before the first chunk), and
    returns only the values evaluated so far.  Its chunks are those of the
    full pass, so each of those values is the full pass's bit for bit.  A
    pass of more tasks runs every chunk: a chunk's values are complete only
    once every task has run it.
    """
    n = aug.n
    s = np.empty((0, n), np.int8) if signs is None else signs
    B = len(s)
    tasks, workers, sizes = resample_plan(n, B)
    ones = np.ones((1, n))
    shares = np.empty((sum(len(blocks) for _, _, blocks in tasks), B + 1))
    curtail = stop is not None and len(tasks) == 1
    evaluated = 0 if curtail else B
    # Allocated on the calling thread: allocating them in the pool threads
    # cost 2.5% of the build's speed and 7 MB of peak RSS at n = 2000.  One
    # allocation per thread: as three, glibc malloc gave the heap back after
    # each pass, and a run_test at n = 500 took about 600 page faults, not 0.
    buffers = [np.empty(sum(sizes)) for _ in range(workers)]
    cut = (sizes[0], sizes[0] + sizes[1])

    def share(buf, task):
        nonlocal evaluated
        store, scratch, panel = buf[: cut[0]], buf[cut[0]: cut[1]], buf[cut[1]:]
        spans, chunk, blocks = task
        kept, at = [], 0
        for b, rows, cols in blocks:
            g = gram_tile(aug, rows, cols, store[at:], scratch)
            at += g.size if B else 0
            _forms(ones[:, rows], g, ones[:, cols], shares[b, :1], scratch[: g.shape[1]].reshape(1, -1))
            kept.append((b, _on_panel(rows, spans), _on_panel(cols, spans), g, rows != cols))
            if rows != cols:
                shares[b, 0] *= 2.0
        # the one task holds every block, so the observed value is complete
        floor = _tie_floor(_statistics(shares[:, :1], n)[0]) if curtail else None
        reached, width = 0, sum(span.stop - span.start for span in spans)
        for lo in range(0, B, chunk):
            if curtail and reached >= stop:
                return
            hi = min(lo + chunk, B)
            part = panel[: (hi - lo) * width].reshape(hi - lo, width)
            for span in spans:
                part[:, _on_panel(span, spans)] = s[lo:hi, span]
            for b, rows, cols, g, mirrored in kept:
                product = scratch[: (hi - lo) * g.shape[1]].reshape(hi - lo, -1)
                _forms(part[:, rows], g, part[:, cols], shares[b, 1 + lo:1 + hi], product)
                if mirrored:
                    shares[b, 1 + lo:1 + hi] *= 2.0
            if curtail:
                reached += int(np.count_nonzero(_statistics(shares[:, 1 + lo:1 + hi], n) >= floor))
                evaluated = hi

    fan_out(share, tasks, buffers)
    return _statistics(shares[:, : 1 + evaluated], n)


def one_tile(aug: AugmentedSample) -> tuple[np.ndarray, float]:
    """G built as one tile, and the observed statistic with the bits :func:`swap_values` gives at n <= BLOCK.

    For small samples that need G itself (the exact enumeration).
    """
    n = aug.n
    whole = slice(0, n)
    g = gram_tile(aug, whole, whole)
    shares = np.empty((1, 1))
    ones = np.ones((1, n))
    _forms(ones, g, ones, shares[0], np.empty((1, n)))
    return g, float(_statistics(shares, n)[0])


def swap_statistic(aug: AugmentedSample, signs: np.ndarray):
    """Statistic s^T G s / (n (n-1)) after the swaps the signs select.

    s_i = +1 keeps pair i and s_i = -1 swaps it, so all ones gives the
    observed statistic, and -s gives the same value as s.  ``signs`` is one
    length-n vector (returns a float) or an (m, n) array of them (returns m
    values); any entry other than +1 or -1 is refused, and so is a value
    outside [-2, 2].  The values are those of :func:`swap_values`.
    """
    n = aug.n
    s = np.asarray(signs, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != n:
        raise ValueError(f"signs of shape {s.shape} do not match n = {n}")
    if not ((s == 1) | (s == -1)).all():
        raise ValueError("sign entries must be +1 or -1")
    values = swap_values(aug, np.atleast_2d(s))[1:]
    return float(values[0]) if s.ndim == 1 else values


def build_gram(aug: AugmentedSample) -> AugmentedSample:
    """Returns ``aug``.  Kept only for the benchmark's imports; goes with ROADMAP item 1."""
    return aug


@dataclass(frozen=True)
class ZetaEstimate:
    """The value :func:`zeta_hat` returns.  Kept only for the benchmark; goes with ROADMAP item 1."""

    value: float


def zeta_hat(aug: AugmentedSample, cache) -> ZetaEstimate:
    """The observed statistic of ``aug``; ``cache`` is not read.

    Kept only for the benchmark's imports; goes with ROADMAP item 1.
    """
    return ZetaEstimate(value=float(swap_values(aug)[0]))
