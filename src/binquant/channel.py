"""Induced binary channel, mutual information, and the stationarity function.

A threshold vector turns the continuous channel into a 2x2 discrete channel;
its diagonal (a11, a22) holds the correct-decision probabilities.  For a
posterior level ``a`` the induced quantizer maps the region {u < a} to Z=0,
giving the correct-decision masses

    f(a) = mass of density0 on {u < a},   g(a) = mass of density1 on {u >= a},

both computed from the CDFs at the level-set roots (no quadrature), by the
one exact sum that :func:`channel_matrix` uses too (:func:`_correct_masses`):
one CDF call per density over all the thresholds, negated at every other
index so that the terms alternate across the batch, and per mass one
``math.fsum`` of a contiguous slice, its sign restored, clamped at +0.0.
(The solver's candidate ranking sums its own masses, vectorized over its
scan of up to 401 levels, from the CDFs at their unpolished roots: a
ranking needs no exact sum, and one ``fsum`` per mass over the scan made a
fresh solve 0.2-0.6 ms slower, on solves of 0.4-1.8 ms.)  Every batch of
levels is one :func:`_level_batch`: roots and CDFs in one call each, and
f, g and F (one loop on ``math.log``) as arrays, with no object per
level.  The stationarity function F is the scalar factor in

    d I(X;Z)_a / da = p0 * f'(a) * F(a),

so a zero where F falls from positive to negative is a local maximum of
the mutual information.  F can have several, so the solver searches one
per candidate peak, each round of a search one :func:`stationarity` call
on the levels it needs.  The spec keeps its last batch, roots and masses, so
the design read at a level of the last round polishes no root and makes no
CDF call.

A level whose f or g lies within DEGENERACY_EPS of {0, 1} is degenerate: F
is unbounded there, the level functionals give it as NaN, and
:func:`stationarity` raises DegenerateChannelError for a single level.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .density import Thresholds, cdf
from .errors import DegenerateChannelError, InvalidSpecError, QuantizerError
from .likelihood import DEFAULT_GRID_POINTS, ChannelSpec, Prior, _batch_roots, _u_extent, find_level_set

__all__ = [
    "Mapping",
    "ChannelMatrix",
    "LevelFunctionals",
    "channel_matrix",
    "mutual_information",
    "level_functionals",
    "stationarity",
    "DEGENERACY_EPS",
]

Mapping = Literal["odd_to_zero", "even_to_zero"]

#: Correct-decision masses within this band of {0, 1} make the stationarity
#: logs unbounded: ``LevelFunctionals.stationarity_value`` is NaN there, and
#: :func:`stationarity` raises DegenerateChannelError.
DEGENERACY_EPS = 1e-12

#: The QuantizerError of masses with f + g < 1: no level set gives them, so its roots or labels are wrong.
_MASS_SUM_ERROR = "inconsistent level set at level a={!r}: f={!r}, g={!r} violate f + g >= 1"


@dataclass(frozen=True)
class ChannelMatrix:
    """Diagonal of the induced 2x2 channel: a11 = P(Z=0|X=0), a22 = P(Z=1|X=1).

    The off-diagonal entries are 1 - a11 and 1 - a22 by construction.
    """

    a11: float
    a22: float

    def __post_init__(self):
        for name, v in (("a11", self.a11), ("a22", self.a22)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise InvalidSpecError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class LevelFunctionals:
    """Correct-decision masses induced by one posterior level.

    ``correct0`` is f(a), ``correct1`` is g(a); ``roots`` are the level-set
    solutions that bound the quantizer segments and ``mapping`` says which
    segments go to Z=0, so (f, g) is the diagonal of
    ``channel_matrix(spec, roots, mapping)``.  ``stationarity_value`` is
    F(a), or NaN when f or g is within DEGENERACY_EPS of {0, 1}.  f + g >= 1
    always holds for a level-set quantizer, and is enforced here: a
    violation means the level set or its segment labels are wrong, which
    raises QuantizerError (not InvalidSpecError: the spec is valid).
    """

    level: float
    correct0: float
    correct1: float
    roots: Thresholds
    mapping: Mapping
    stationarity_value: float

    def __post_init__(self):
        if self.correct0 + self.correct1 < 1.0 - 1e-9:
            raise QuantizerError(_MASS_SUM_ERROR.format(*map(float, (self.level, self.correct0, self.correct1))))


def validate_thresholds(thresholds) -> Thresholds:
    """Check that thresholds are finite and strictly increasing; return a tuple."""
    h = tuple(float(t) for t in thresholds)
    for t in h:
        if not math.isfinite(t):
            raise InvalidSpecError(f"thresholds must be finite, got {t!r}")
    for lo, hi in zip(h, h[1:]):
        if not lo < hi:
            raise InvalidSpecError(f"thresholds must be strictly increasing, got {h!r}")
    return h


def _correct_masses(c0: list[float], c1: list[float], bounds: list[int], odd_first: list[bool]):
    """(a11, a22) lists of a batch of threshold vectors, from both CDFs at all their thresholds.

    Vector i's are at bounds[i]:bounds[i + 1], and ``odd_first[i]`` sends
    its odd segments to Z=0.  Thresholds h1 < ... < hn split the line into
    the odd segments (-inf, h1), [h2, h3), ... and the even ones [h1, h2),
    [h3, h4), ....  With CDF values c1 <= ... <= cn the odd ones hold
    c1 - c2 + c3 - ... (+ 1 when n is even), the even ones -c1 + c2 - ...
    (+ 1 when n is odd).  The CDFs at odd indices of the batch are negated
    once, so a vector's terms are one contiguous slice, whose sum is +-1
    times its alternating sum (by the parity of its first index and the
    label of its first segment).  Each mass is that sign times one
    ``math.fsum`` of the slice (and the sign, to add 1): the exact sum
    rounded once, clamped into [0, 1] as +0.0, never -0.0, in any batch.
    """
    a0, a1 = c0[:], c1[:]
    a0[1::2], a1[1::2] = [-v for v in c0[1::2]], [-v for v in c1[1::2]]
    a11, a22, fsum = [], [], math.fsum
    for start, stop, odd in zip(bounds, bounds[1:], odd_first):
        # a11 is sign * sum(a0[start:stop]), a22 is -sign * sum(a1[start:stop]); one of them adds 1
        sign = 1.0 if (start % 2 == 0) == odd else -1.0
        if ((stop - start) % 2 == 0) == odd:
            m0, m1 = sign * fsum(a0[start:stop] + [sign]), -sign * fsum(a1[start:stop])
        else:
            m0, m1 = sign * fsum(a0[start:stop]), -sign * fsum(a1[start:stop] + [-sign])
        a11.append(0.0 if m0 <= 0.0 else m0 if m0 < 1.0 else 1.0)
        a22.append(0.0 if m1 <= 0.0 else m1 if m1 < 1.0 else 1.0)
    return a11, a22


def _cdfs(spec: ChannelSpec, points: np.ndarray) -> tuple[list[float], list[float]]:
    """Both conditional CDFs at ``points``: one call per density, and none for no points."""
    if not points.size:
        return [], []
    return cdf(spec.density0, points).tolist(), cdf(spec.density1, points).tolist()


def channel_matrix(spec: ChannelSpec, thresholds: Thresholds, mapping: Mapping) -> ChannelMatrix:
    """The 2x2 channel induced by alternating segments of a threshold vector.

    ``odd_to_zero`` sends the 1st, 3rd, ... segments (starting with
    (-inf, h1)) to Z=0; ``even_to_zero`` sends them to Z=1.  With no
    thresholds everything lands in the single (odd) segment.
    """
    if mapping not in ("odd_to_zero", "even_to_zero"):
        raise InvalidSpecError(f"unknown mapping {mapping!r}")
    c0, c1 = _cdfs(spec, np.array(validate_thresholds(thresholds)))
    (a11,), (a22,) = _correct_masses(c0, c1, [0, len(c0)], [mapping == "odd_to_zero"])
    return ChannelMatrix(a11=a11, a22=a22)


def _h2(w):
    """H2(w) = -(w log2 w + (1 - w) log2(1 - w)) in bits, elementwise; 0 for w outside (0, 1).

    Both logs come from numpy's vectorized ``log2``, so an element gives
    the same float alone as inside an array.  0 log 0 := 0 at w = 0 and
    w = 1, and every w outside (0, 1) gives exactly +0.0 too: masses formed
    by sums such as c0[i] + 1 - c0[j] can round to 1 + 2^-52, where the
    formula would take the log of a negative number.  No mask is built for this: the sum w log2 w +
    v log2 v is NaN exactly where w is outside (0, 1) or NaN (0 * -inf or
    the log of a negative number; in floating point, w < 1 exactly when
    v = 1 - w > 0), and negative inside, where neither product underflows
    to zero.  So the sum is formed in place in one buffer, negated, and
    ``fmax`` with +0.0 replaces its NaNs: two array passes, where a mask
    and a ``where`` select would take five.  An array-like of any shape,
    0-d included, gives an array of its shape.
    """
    w = np.asarray(w, dtype=float)
    v = 1.0 - w
    h = np.empty_like(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(w, np.log2(w, out=h), out=h)
        t = np.log2(v)
        t *= v
        h += t
    np.negative(h, out=h)
    return np.fmax(h, 0.0, out=h)


def _mi_bits(p0: float, a11, a22):
    """I(X;Z) in bits from correct-decision masses (scalars or arrays).

    q0 = p0 a11 + p1 (1 - a22) is the output mass on Z=0 and

        I = H2(q0) - p0 H2(a11) - p1 H2(a22),

    clamped at 0 (rounding can produce -1e-16 for useless channels).
    """
    p1 = 1.0 - p0
    q0 = p0 * a11 + p1 * (1.0 - a22)
    return np.maximum(0.0, _h2(q0) - p0 * _h2(a11) - p1 * _h2(a22))


def mutual_information(prior: Prior, matrix: ChannelMatrix) -> float:
    """I(X;Z) of the induced binary channel, in bits; never exceeds H2(p0)."""
    return float(_mi_bits(prior.p0, matrix.a11, matrix.a22))


#: The level functionals of a batch, per sorted unique level (:func:`_level_batch`).
_Batch = namedtuple("_Batch", "levels inverse bounds roots odd_first f g F")


def _level_batch(spec: ChannelSpec, levels, grid_points: int) -> _Batch:
    """f, g and F of a batch of levels as arrays, per sorted unique level, with no object per level.

    The roots come from one :func:`~binquant.likelihood._batch_roots` call;
    one CDF call per density at all of them gives every mass
    (:func:`_correct_masses`).  Raises QuantizerError for the first level
    of ``levels`` with f + g < 1.  Every batch is built here, and the spec
    keeps it as its last batch of this grid size, which
    :func:`level_functionals` and :func:`~binquant.likelihood.find_level_set`
    read.
    """
    uniq, inverse, bounds, roots = _batch_roots(spec, levels, grid_points)
    u_lo = _u_extent(spec, grid_points)[0]
    odd_first = [u_lo < a for a in uniq]
    f, g = _correct_masses(*_cdfs(spec, roots), bounds, odd_first)
    F = _stationarity_from_masses(spec.prior, uniq, f, g)
    f, g = np.array(f), np.array(g)
    short = f + g < 1.0 - 1e-9
    if short.any():
        i = inverse[short[inverse].argmax()]
        raise QuantizerError(_MASS_SUM_ERROR.format(uniq[i], float(f[i]), float(g[i])))
    spec._last_batch[grid_points] = batch = _Batch(uniq, inverse, bounds, roots, odd_first, f, g, F)
    return batch


def level_functionals(spec: ChannelSpec, level, grid_points: int = DEFAULT_GRID_POINTS):
    """Correct-decision masses f, g of the quantizer induced by ``level``, and F from them.

    Like :func:`~binquant.likelihood.find_level_set` and
    :func:`stationarity`, it takes a level or a batch.  A single level gives
    one :class:`LevelFunctionals` on the level set that
    :func:`~binquant.likelihood.find_level_set` gives for it, read with the
    masses and F from the spec's last batch of this grid size.  When that
    batch does not hold the level, a batch of one is built and kept first
    (:func:`_level_batch`); when it does, no root and no CDF is computed
    again, and the fields are those of a batch of one.  Any
    array-like of levels gives a tuple of them, in input order, from the
    arrays of one :func:`_level_batch` (which the spec keeps as its last
    batch), which the callers that need only numbers (:func:`stationarity`,
    the oracle) read directly.  Raises InvalidSpecError if any level lies
    outside (1e-9, 1 - 1e-9).

    The level-set roots are the thresholds, and the segments between them
    alternate between {u < level} and {u >= level}, so only the first one,
    (-inf, h1), needs a label: the posterior at ``search_lo``, where it has
    stabilized to its tail behavior, decides it, with no posterior call
    (:func:`~binquant.likelihood._u_extent`: closed form for a
    single-Gaussian pair, the first point of a mixture's search grid).  f
    and g are then a11 and a22 of ``channel_matrix(spec, roots, mapping)``,
    and F is taken from them.  Boundary points (u = level) carry no mass.
    """
    mapping = ("even_to_zero", "odd_to_zero")
    if np.ndim(level):
        b = _level_batch(spec, level, grid_points)
        roots = b.roots.tolist()
        rows = zip(b.levels, b.bounds, b.bounds[1:], b.odd_first, b.f.tolist(), b.g.tolist(), b.F.tolist())
        fns = [LevelFunctionals(a, f, g, tuple(roots[i:j]), mapping[odd], F) for a, i, j, odd, f, g, F in rows]
        return tuple(fns[i] for i in b.inverse.tolist())
    b = spec._last_batch.get(grid_points)
    if b is None or level not in b.levels:
        b = _level_batch(spec, [level], grid_points)
    level_set = find_level_set(spec, level, grid_points)
    k = b.levels.index(level)
    return LevelFunctionals(
        level_set.level, float(b.f[k]), float(b.g[k]), level_set.roots, mapping[b.odd_first[k]], float(b.F[k])
    )


def _stationarity_from_masses(prior: Prior, levels: list[float], f: list[float], g: list[float]) -> np.ndarray:
    """F of each level by the :func:`stationarity` formula on ``math.log``; NaN where f or g is degenerate."""
    lo, hi = DEGENERACY_EPS, 1.0 - DEGENERACY_EPS
    p0, p1, log = prior.p0, prior.p1, math.log
    F = []
    for a, fa, ga in zip(levels, f, g):
        if lo < fa < hi and lo < ga < hi:
            r, q0, q1 = a / (1.0 - a), p0 * fa + p1 * (1.0 - ga), p0 * (1.0 - fa) + p1 * ga
            F.append(log(fa / (1.0 - fa)) - r * log(ga / (1.0 - ga)) - (1.0 + r) * log(q0 / q1))
        else:
            F.append(math.nan)
    return np.array(F)


def stationarity(spec: ChannelSpec, level, grid_points: int = DEFAULT_GRID_POINTS):
    """The stationarity function F at ``level`` (natural logs).

        F(a) = log(f/(1-f)) - r log(g/(1-g))
               - (1 + r) log((p0 f + p1 (1-g)) / (p0 (1-f) + p1 g)),   r = a/(1-a)

    F is the scalar factor in dI/da = p0 f'(a) F(a): it is positive while
    raising the level gains information and negative while it loses it, so
    every + to - zero of F is a local maximum of the mutual information.
    F can jump upward where a new dip of the posterior joins the level set,
    and it can have several + to - zeros.  The zeros are invariant to the
    log base.

    F is read from one :func:`_level_batch`.  An array of levels gives F
    at each, in order, NaN at degenerate levels; a scalar level gives a
    float, and raises DegenerateChannelError when f or g is within 1e-12 of
    {0, 1}: the level must move inward.
    """
    b = _level_batch(spec, np.atleast_1d(level), grid_points)
    if np.ndim(level):
        return b.F[b.inverse]
    if math.isnan(b.F[0]):
        raise DegenerateChannelError(level, b.f[0], b.g[0])
    return float(b.F[0])
