"""Exhaustive verification of solved quantizer designs.

:func:`grid_search` does not reuse the solver's level search: it is
exhaustive over the threshold tuples of a uniform grid, by convex tile
bounds, with n = 1, 2 and 3 sharing one code path.  It returns what scoring
every tuple would, but scores only the tiles of tuples whose bound can reach
the best score: the tile of the highest bound first, alone, and then the
tiles whose bound reaches its score, in full chunks.  The CDFs at block
ends, which bound the tiles, are kept per block; those inside a block fill
a row of one ``(blocks, block size)`` array per density the first time a
scored tile uses the block, and a chunk of tiles is scored as one broadcast
array, tile axis last, with the tuples that are not strictly increasing or
lie past the last point masked out.  It forms the
masses of tuples and tile corners with its own alternating CDF sums
(:func:`_masses`) and scores them with the MI formula of
:mod:`binquant.channel`; the check that shares no code at all is
``bench/certificate.py``.  :func:`sweep_levels` tabulates the level
functionals across the whole admissible range, and
:func:`structural_checks` validates structural facts of the level
functionals with central finite differences: mass monotonicity, the
derivative relation between the correct-decision masses, and the sign of
the stationarity function against the slope of the mutual information.
Each reads f, g and F of all of its levels as arrays from one batch of
level functionals (``channel._level_batch``), which builds no object per
level; a NaN F marks a degenerate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import _h2, _level_batch, _mi_bits, channel_matrix, mutual_information
from .density import Thresholds, cdf
from .errors import InvalidSpecError
from .likelihood import DEFAULT_GRID_POINTS, ChannelSpec

__all__ = [
    "OracleResult",
    "SweepRow",
    "StructuralCheck",
    "grid_search",
    "sweep_levels",
    "structural_checks",
]

#: Grid points per block, by the number of thresholds: a tile holds up to
#: 128, 64 and 64 tuples.
_BLOCK = {1: 128, 2: 8, 3: 4}

#: Tuples scored per chunk of tiles, which bounds the scoring arrays.
_CHUNK_TUPLES = 1 << 14

#: A tile is pruned once its bound falls below the best score by more than
#: this (bits).  The rounding of ``_mi_bits`` at a tuple and at a corner is
#: about 1e-14 bits (a tuple scored at most 5e-15 above its tile's bound on
#: the shipped configs), so a pruned tuple can neither win nor tie.
_SLACK_BITS = 1e-12

#: Bytes a grid search may hold at its peak, as :func:`_search_bytes` counts them.
_BYTE_BUDGET = 1 << 28

#: Peak bytes per tile, by n: tile indices, corner masses, their entropies
#: and bounds.  Measured with ``tracemalloc`` as 195, 162 and 170 on grids
#: of 10^3 to 10^6 tiles.
_TILE_BYTES = {1: 200, 2: 170, 3: 180}

#: Peak bytes per tuple of a full scoring chunk, beyond the tile arrays:
#: its block rows, masses, entropies and mask, and the grid indices of the
#: tuples that tie for its top score.  Measured with ``tracemalloc`` as at
#: most 1.13 MiB above what the search held before the chunk, for
#: ``_CHUNK_TUPLES`` tuples that all tie, as on a flat channel, where no
#: tile is pruned and the second chunk is already full.
_CHUNK_TUPLE_BYTES = 128

#: Peak bytes per component and point of one :func:`~binquant.density.cdf`
#: call: the standardized points, the Gaussian tail factor, the kernel's
#: interval indices and the gathered coefficients (6 per point).  Measured
#: with ``tracemalloc`` as 73 on 4,096 to 65,536 points and 1 to 6
#: components.
_CDF_BYTES = 80

#: The levels :func:`structural_checks` validates, and its finite-difference step.
_CHECK_LEVELS = np.linspace(0.05, 0.95, 19)
_FD_STEP = 1e-5

#: A change of I(X;Z) over +- ``_FD_STEP`` smaller than this (bits) has no
#: sign that :func:`structural_checks` compares with F's.
_SLOPE_FLOOR_BITS = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """Best quantizer found by exhaustive grid search.

    ``best_thresholds`` lies on the search grid.  Relabeling Z leaves
    I(X;Z) unchanged, so the search scores each tuple under one label
    mapping only; ``best_mi_bits`` is the exact mutual information
    recomputed at the winning thresholds (max over the two label mappings).
    Ties break to the lexicographically smallest tuple.  ``n_evaluated`` is
    the number of tuples the search covers, C(grid points, n): every one
    was either scored or bounded below the best.
    """

    best_mi_bits: float
    best_thresholds: Thresholds
    n_evaluated: int


def _masses(first, second, last):
    """(a11, a22) of thresholds whose CDF values are ``(c0, c1)`` pairs.

    Segments (-inf, first) and [second, last) go to Z=0.  An n < 3 tuple
    passes (0.0, 0.0), the CDFs at -inf, for its missing leading thresholds,
    which leaves the sums exact: an n = 2 tuple is an n = 3 one with an
    empty first segment (relabeling Z leaves I(X;Z) unchanged), and an
    n = 1 tuple one whose first two thresholds are at -inf.  Each mass is
    non-decreasing in the CDF values it adds and non-increasing in those it
    subtracts.
    """
    (x0, x1), (y0, y1), (z0, z1) = first, second, last
    return x0 + (z0 - y0), (y1 - x1) + (1.0 - z1)


#: The missing leading thresholds of an n-tuple, by n.
_PAD = {n: [(0.0, 0.0)] * (3 - n) for n in (1, 2, 3)}


def _blocks(npts: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last grid index of each block of ``_BLOCK[n]`` consecutive points."""
    starts = np.arange(0, npts, _BLOCK[n])
    return starts, np.minimum(starts + _BLOCK[n], npts) - 1


def _tile_bounds(p0: float, head, tail, starts, ends, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tiles of n thresholds and a bound on the MI score of every tuple in each.

    A tile is a non-decreasing tuple of block indices (an ``(n, tiles)``
    array) that holds at least one strictly increasing tuple of grid
    indices.  ``head`` and ``tail`` are the ``(c0, c1)`` CDF values at
    each block's first and last grid point, one array of blocks each.
    The CDFs are monotone and rounded ``+``/``-`` is too, so the masses
    (a11, a22) of every tuple in a tile lie in the box between the tile's
    two extreme corners.  For a fixed input I(X;Z) is convex in the channel
    (Cover & Thomas, Thm 2.7.4), which is affine in the masses, so the
    largest ``_mi_bits`` at the four corners of that box, clamped into
    [0, 1]^2, bounds the tile up to rounding.  The bound is computed term by
    term, bit for bit as four ``_mi_bits`` calls would give it, but the
    entropy of each of the four corner masses is computed once: 8 entropy
    passes per tile, one corner's array at a time.
    """
    # the non-decreasing tuples: each one extended by every block from its last on
    blocks = np.arange(starts.size)[None]
    for _ in range(1, n):
        reps = starts.size - blocks[-1]
        after = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - blocks[-1], reps)
        blocks = np.vstack([np.repeat(blocks, reps, axis=1), after])
    first, holds = starts[blocks[0]], np.ones(blocks.shape[1], dtype=bool)
    for m in range(1, n):
        first = np.maximum(starts[blocks[m]], first + 1)
        holds &= first <= ends[blocks[m]]
    blocks = blocks[:, holds]

    # the masses are largest where the CDFs are high at the added first and
    # last thresholds and low at the subtracted second one
    rise, fall = (tail[0], head[1]), (head[0], tail[1])

    def corner(slots):
        masses = _masses(*_PAD[n], *[(v0[b], v1[b]) for (v0, v1), b in zip(slots[3 - n :], blocks)])
        return [np.clip(m, 0.0, 1.0) for m in masses]

    (a11_hi, a22_hi), (a11_lo, a22_lo) = corner([rise, fall, rise]), corner([fall, rise, fall])
    # _mi_bits at each corner, term by term, with the entropy of each corner
    # mass taken once; q0 = p0 a11 + p1 (1 - a22) sums an X=0 and an X=1 part
    p1 = 1.0 - p0
    x1 = [(p1 * (1.0 - a22), p1 * _h2(a22)) for a22 in (a22_lo, a22_hi)]
    bound = np.zeros(blocks.shape[1])
    for a11 in (a11_lo, a11_hi):
        q0_x0, h_x0 = p0 * a11, p0 * _h2(a11)
        for q0_x1, h_x1 in x1:
            np.maximum(bound, _h2(q0_x0 + q0_x1) - h_x0 - h_x1, out=bound)
    return blocks, bound


def _search_bytes(spec: ChannelSpec, npts: int, n: int) -> int:
    """An upper bound on the bytes :func:`grid_search` holds at its peak on ``npts`` points.

    The two CDF rows of every block, 16 bytes per slot of ``_BLOCK[n]``
    (a partial last block is padded), and its two CDF values at each end;
    the arrays of C(blocks + n - 1, n) tiles (``_TILE_BYTES``), one full
    scoring chunk (``_CHUNK_TUPLE_BYTES``), and the workspace of one CDF
    call (``_CDF_BYTES`` per component and point), which evaluates at
    most a chunk's points or both ends of every block.  The rows are
    allocated whole but written a block at a time, so a search that scores
    few tiles touches few of their pages.
    """
    blocks = -(-npts // _BLOCK[n])
    components = max(len(spec.density0.components), len(spec.density1.components))
    return (
        16 * blocks * (_BLOCK[n] + 2)
        + _TILE_BYTES[n] * math.comb(blocks + n - 1, n)
        + _CHUNK_TUPLE_BYTES * _CHUNK_TUPLES
        + _CDF_BYTES * components * max(_CHUNK_TUPLES, 2 * blocks)
    )


def grid_size(spec: ChannelSpec, n_thresholds: int, grid_step: float) -> int:
    """Points of the uniform grid :func:`grid_search` would search.

    Raises InvalidSpecError for the arguments it rejects: ``n_thresholds``
    outside {1, 2, 3}, a ``grid_step`` that is not finite and positive, a
    grid with fewer points than thresholds, or one whose search would hold
    more than ``_BYTE_BUDGET`` bytes (:func:`_search_bytes`).  The count
    comes from the grid size alone, before anything is allocated.
    """
    n = n_thresholds
    if n not in (1, 2, 3):
        raise InvalidSpecError(f"n_thresholds must be 1, 2, or 3, got {n!r}")
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise InvalidSpecError(f"grid_step must be finite and > 0, got {grid_step!r}")
    # capped, so that a step too fine for any budget needs no huge (or infinite) count
    cap = _BYTE_BUDGET // 16
    npts = int(math.floor(min((spec.search_hi - spec.search_lo) / grid_step + 1e-9, cap))) + 1
    if npts < n:
        raise InvalidSpecError("grid has fewer points than requested thresholds")
    if _search_bytes(spec, npts, n) > _BYTE_BUDGET:
        raise InvalidSpecError(
            f"grid_step {grid_step!r} is too fine for n_thresholds={n}: the grid search "
            f"would hold more than {_BYTE_BUDGET >> 20} MiB"
        )
    return npts


def grid_search(spec: ChannelSpec, n_thresholds: int, grid_step: float) -> OracleResult:
    """MI maximization, exhaustive over the grid, by convex tile bounds.

    The result is that of scoring every strictly increasing n-tuple on the
    uniform grid over the search window once (the label mapping does not
    change I(X;Z)) and keeping the lexicographically first maximum.  Every
    tile is bounded from the CDFs at block ends, one CDF call per density
    on the starts and ends of all blocks (:func:`_tile_bounds`).  The tile
    of the highest bound is scored first, alone, and its top score sets
    the bar: only the tiles whose bound reaches it, less ``_SLACK_BITS``,
    are sorted by bound, and they are scored best bound first in full
    chunks of ``_CHUNK_TUPLES`` tuples, each chunk's tiles filtered again
    against the best score so far.  The search stops at the first chunk
    with no tile left, so no tuple left unscored could win or tie.  The
    CDFs inside block b fill row b of a ``(blocks, _BLOCK[n])`` array per
    density the first time a scored tile uses the block; the slots of a
    partial last block past the last point repeat it.  A chunk's tuples
    form one ``(size, ..., size, tiles)`` array, slot m's block row along
    axis m, and those that are not strictly increasing or lie past the
    last point score -inf; only the tuples that tie for the chunk's top
    are mapped back to grid indices.  ``n_thresholds`` is capped at 3: the
    search is O((range/step)^n) in the worst case, and anything larger is
    better exercised through :func:`sweep_levels`.
    """
    n = n_thresholds
    npts = grid_size(spec, n, grid_step)
    p0 = spec.prior.p0
    starts, ends = _blocks(npts, n)
    size = _BLOCK[n]

    def cdfs(idx):  # grid point k is search_lo + grid_step * k
        y = spec.search_lo + grid_step * idx
        return cdf(spec.density0, y), cdf(spec.density1, y)

    # ((c0, c1) at block starts, (c0, c1) at block ends), from one call per density
    head, tail = zip(*cdfs(np.stack([starts, ends])))
    blocks, bound = _tile_bounds(p0, head, tail, starts, ends, n)

    # row b holds the CDFs at points starts[b] + 0 ... size - 1, the slots
    # past the last point clamped to it; it is filled when first scored
    rows0, rows1 = np.empty((starts.size, size)), np.empty((starts.size, size))
    filled = np.zeros(starts.size, dtype=bool)
    # slot m of a chunk's (size, ..., size, tiles) tuples runs along axis m,
    # from a contiguous (size, tiles) copy of its block rows: with the tile
    # axis last, numpy's inner loops run over the tiles, not over the 4 or 8
    # slots of an n = 3 or n = 2 block
    axes = [(1,) * m + (size,) + (1,) * (n - 1 - m) + (-1,) for m in range(n)]
    # out[..., k] marks the tuples that a tile of kind k cannot hold: bit
    # m < n - 1 of k is set when its slots m and m + 1 share a block, whose
    # offsets must then increase, and bit n - 1 when its last slot is in the
    # last block, whose offsets must not pass the last point
    offsets = np.indices((size,) * n)
    cuts = [offsets[m] >= offsets[m + 1] for m in range(n - 1)] + [offsets[-1] > npts - 1 - starts[-1]]
    out = np.zeros((size,) * n + (1 << n,), dtype=bool)
    for j, cut in enumerate(cuts):
        out[..., np.arange(1 << n) >> j & 1 == 1] |= cut[..., None]

    def score(tiles):
        """The top score of the tuples of these tiles, and the first tuple that reaches it."""
        chunk = blocks[:, tiles]
        todo = np.unique(chunk)
        todo = todo[~filled[todo]]
        if todo.size:
            rows0[todo], rows1[todo] = cdfs(np.minimum(starts[todo, None] + np.arange(size), npts - 1))
            filled[todo] = True
        slots = [(rows0[b].T.copy().reshape(axis), rows1[b].T.copy().reshape(axis)) for b, axis in zip(chunk, axes)]
        mi = _mi_bits(p0, *_masses(*_PAD[n], *slots))
        bits = [chunk[m] == chunk[m + 1] for m in range(n - 1)] + [chunk[-1] == starts.size - 1]
        mi[out[..., sum(bit * (1 << j) for j, bit in enumerate(bits))]] = -np.inf
        top = mi.max()
        *at, tile = np.unravel_index(np.flatnonzero(mi == top), mi.shape)
        ties = starts[chunk[:, tile]] + np.array(at)
        return top, tuple(ties[:, np.lexsort(ties[::-1])[0]].tolist())

    # the tile of the highest bound sets the bar alone; the others that can
    # reach it are scored in full chunks, best bound first, each chunk
    # re-filtered against the best score so far
    first = np.argmax(bound)
    best_mi, best = score(first[None])
    live = np.flatnonzero(bound >= best_mi - _SLACK_BITS)
    live = live[live != first]
    live = live[np.argsort(-bound[live])]
    per_chunk = _CHUNK_TUPLES // size**n
    for c in range(0, live.size, per_chunk):
        tiles = live[c : c + per_chunk]
        tiles = tiles[bound[tiles] >= best_mi - _SLACK_BITS]
        if not tiles.size:
            break
        top, winner = score(tiles)
        if top > best_mi or (top == best_mi and winner < best):
            best_mi, best = top, winner

    thresholds = tuple(float(spec.search_lo + grid_step * k) for k in best)
    exact = max(
        mutual_information(spec.prior, channel_matrix(spec, thresholds, "odd_to_zero")),
        mutual_information(spec.prior, channel_matrix(spec, thresholds, "even_to_zero")),
    )
    return OracleResult(
        best_mi_bits=exact,
        best_thresholds=thresholds,
        n_evaluated=math.comb(npts, n),
    )


class SweepRow(NamedTuple):
    """One tabulated level: masses, stationarity value, MI, and root count.

    ``degenerate`` rows (masses at machine 0/1) carry NaN in
    ``stationarity_value`` but are emitted rather than dropped.  A row is
    a tuple of its fields in this order, so a CSV line formats it whole.
    """

    level: float
    correct0: float
    correct1: float
    stationarity_value: float
    mi_bits: float
    n_roots: int
    degenerate: bool


def sweep_levels(
    spec: ChannelSpec, levels, grid_points: int = DEFAULT_GRID_POINTS
) -> list[SweepRow]:
    """Tabulate the quantizer induced at each level of ``levels``.

    All levels go through one batch of level functionals, read as arrays
    (``channel._level_batch``); ``mi_bits`` is the mutual information of
    each level's masses.
    """
    b = _level_batch(spec, np.atleast_1d(levels), grid_points)
    columns = (np.array(b.levels), b.f, b.g, b.F, _mi_bits(spec.prior.p0, b.f, b.g), np.diff(b.bounds), np.isnan(b.F))
    return list(map(SweepRow._make, zip(*(column[b.inverse].tolist() for column in columns))))


@dataclass(frozen=True)
class StructuralCheck:
    """Outcome of one structural check: worst violation vs its tolerance."""

    name: str
    passed: bool
    worst_violation: float
    tolerance: float


def structural_checks(spec: ChannelSpec, grid_points: int = DEFAULT_GRID_POINTS) -> dict[str, StructuralCheck]:
    """Numerically validate the structural facts of the level functionals.

    On the levels 0.05, 0.10, ..., 0.95 (``_CHECK_LEVELS``), with central
    differences over +- ``_FD_STEP``:

    * ``monotone_masses`` - f non-decreasing, g non-increasing (slack 1e-10);
    * ``derivative_relation`` - f'(a) = -r g'(a) with r = (1-a) p1 / (a p0),
      compared as mass changes: |df + r dg| less an allowance of
      4 eps (1 + r) for the rounding of the four masses, relative to the
      larger of |df| and |r dg|, within 1e-3;
    * ``stationarity_slope_sign`` - dI/da = p0 f'(a) F(a) with f' >= 0, so
      F(a) has the sign of I(a + step) - I(a - step) wherever that change
      exceeds ``_SLOPE_FLOOR_BITS``; the worst violation is the number of
      levels where the two signs disagree.  F may change sign more than
      once (the solver brackets every + to - zero), so this compares signs
      level by level rather than counting sign changes.

    Degenerate levels take part in the mass checks (their masses are exact
    0/1) and are skipped by the sign check, where F is NaN.  The 19 levels
    and their neighbours go through one batch of level functionals, read
    as arrays (``channel._level_batch``).
    """
    levels, fd_step = _CHECK_LEVELS, _FD_STEP
    p0, p1 = spec.prior.p0, spec.prior.p1
    b = _level_batch(spec, np.concatenate([levels, levels + fd_step, levels - fd_step]), grid_points)
    fs, gs, stat = (column[b.inverse].reshape(3, -1) for column in (b.f, b.g, b.F))
    (f, f_hi, f_lo), (g, g_hi, g_lo), f_stat = fs, gs, stat[0]

    checks: dict[str, StructuralCheck] = {}

    def add(name: str, worst: float, tol: float):
        checks[name] = StructuralCheck(name, passed=bool(worst <= tol), worst_violation=float(worst), tolerance=tol)

    worst_mono = max(
        float(np.max(f[:-1] - f[1:], initial=0.0)),
        float(np.max(g[1:] - g[:-1], initial=0.0)),
        0.0,
    )
    add("monotone_masses", worst_mono, 1e-10)

    ratio = (1.0 - levels) * p1 / (levels * p0)
    df, predicted = f_hi - f_lo, -ratio * (g_hi - g_lo)
    excess = np.abs(df - predicted) - 4.0 * np.finfo(float).eps * (1.0 + ratio)
    scale = np.maximum(np.abs(df), np.abs(predicted))
    relative = np.divide(excess, scale, out=np.zeros_like(excess), where=excess > 0.0)
    add("derivative_relation", float(np.max(relative)), 1e-3)

    rise = np.subtract(*_mi_bits(p0, fs[1:], gs[1:]))  # I(a + step) - I(a - step)
    compared = np.isfinite(f_stat) & (np.abs(rise) > _SLOPE_FLOOR_BITS)
    add("stationarity_slope_sign", float(np.sum(np.sign(f_stat[compared]) != np.sign(rise[compared]))), 0.0)

    return checks
