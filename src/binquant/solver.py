"""Candidate ranking and level search for the optimal binary quantizer.

The optimal quantizer is the full root set of u(y) = a* for one level a*.
The stationarity function F may change sign from + to - more than once, so
:func:`solve` first ranks quantizers to find every peak of the mutual
information.  Only level-set quantizers can be optimal, so every channel
ranks the level sets of one scan of levels over the range of u, their
roots taken to ranking accuracy (closed form for a single-Gaussian pair,
unpolished grid crossings for a mixture).  One level search starts from
each peak's vertex v, that of the parabola through the scan's MI at the
peak and its two neighbours: it brackets a + to - change of F within 1e-4
of v, else by moving out from v, and narrows the bracket by Chandrupatla's
inverse-quadratic search; the searches run one after another, each round
one :func:`~binquant.channel.stationarity` call (two on each shipped
channel, which has one candidate).  The ranking only ranks: every
reported number comes from one :func:`~binquant.channel.level_functionals`
call at a*, where every threshold carries the likelihood ratio
r* = (p1/p0)(1 - a*)/a*; the worst relative deviation from it is the
design's ``stationarity_residual``.  Where the scan's best MI beats every
searched level's, that level is read and compared too, so a design never
carries less than the scan's best level set (where no search ends on a
level, ``solve`` raises instead).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, Mapping, _mi_bits, level_functionals, stationarity
from .density import Thresholds, cdf
from .errors import InvalidSpecError, NoSignChangeError, NotConvergedError
from .likelihood import _LEVEL_MARGIN, DEFAULT_GRID_POINTS, ChannelSpec, Monotonicity, _check_grid_points
from .likelihood import _level_roots, _u_extent, classify_monotonicity, likelihood_ratio

__all__ = ["SolverConfig", "QuantizerDesign", "solve", "predict_single_threshold"]

#: Ranked MI peaks within this many bits of the best one are candidates.
PEAK_MARGIN_BITS = 1e-3

#: MI peaks closer than twice this are one candidate; a quarter of it is the scan's largest level spacing and
#: the first step of a level search's walk out from its vertex, doubled each round.
BRACKET_HALF_WIDTH = 0.01

#: Distance from a candidate's scan vertex to the levels round 0 evaluates next to it.
_VERTEX_HALF_WIDTH = 1e-4

#: MI differences up to this many bits are rounding: a channel carries no information when no quantizer
#: the scan or the search finds carries more, and the scan's best level replaces a searched design only
#: when it carries more than this above it.
_NO_INFORMATION_BITS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Level-search parameters; the defaults solve all shipped channels < 1 s.

    ``[a_lo, a_hi]`` is the range of levels the solver scans and searches,
    inside the levels that :mod:`binquant.likelihood` admits:
    1e-9 < a_lo < a_hi < 1 - 1e-9.  ``tol_a`` is the width the
    level search narrows each sign-change bracket to, ``max_iter`` the
    budget of narrowing rounds of each candidate's search, and
    ``grid_points`` the number of uniform points of a mixture's search grid,
    which brackets its level-set roots (for the scan that ranks its
    candidates, too) and classifies its ratio, at most MAX_GRID_POINTS.  A
    single-Gaussian pair is scanned and classified in closed form; for it
    ``grid_points`` only sets the grid of the monotonicity verdict, on which
    the steps of its quadratic log r are judged.  Each error message starts
    with the name of the field it rejects.
    """

    a_lo: float = 1e-6
    a_hi: float = 1.0 - 1e-6
    tol_a: float = 1e-10
    max_iter: int = 200
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not _LEVEL_MARGIN < self.a_lo < 1.0 - _LEVEL_MARGIN:
            raise InvalidSpecError(f"a_lo must lie in (1e-9, 1 - 1e-9), got {self.a_lo!r}")
        if not self.a_lo < self.a_hi < 1.0 - _LEVEL_MARGIN:
            raise InvalidSpecError(f"a_hi must lie in (a_lo = {self.a_lo!r}, 1 - 1e-9), got {self.a_hi!r}")
        if not (math.isfinite(self.tol_a) and self.tol_a > 0.0):
            raise InvalidSpecError(f"tol_a must be finite and > 0, got {self.tol_a!r}")
        if self.max_iter < 1:
            raise InvalidSpecError(f"max_iter must be >= 1, got {self.max_iter!r}")
        _check_grid_points(self.grid_points)


@dataclass(frozen=True)
class QuantizerDesign:
    """A solved, certified quantizer.

    ``a_star`` is the optimal posterior level, ``r_star`` the common
    likelihood ratio (p1/p0)(1-a*)/a* at every threshold, and
    ``stationarity_residual`` the worst relative deviation
    max_i |r(h_i) - r*| / r* actually measured.  ``mi_bits`` is recomputed
    from exact partition masses at the final thresholds, never interpolated.
    ``iterations`` is the number of :func:`~binquant.channel.stationarity`
    calls - 1: the walk and narrowing rounds of the level search (0 when
    round 0 settled it), plus every round of each further candidate's.
    """

    a_star: float
    r_star: float
    thresholds: Thresholds
    mapping: Mapping
    channel: ChannelMatrix
    mi_bits: float
    stationarity_residual: float
    iterations: int


def _level_scan(spec: ChannelSpec, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Levels in increasing order and the MI of their level-set quantizers.

    The range of u over the search window, cut to [a_lo, a_hi], gets levels
    spaced at most BRACKET_HALF_WIDTH / 4 apart, symmetric about its
    midpoint, which is one of them (at most 401 levels).  Their roots, to
    ranking accuracy, bound the segments; one CDF call per density at all
    the roots gives f and g of every level by alternating sums, the first
    segment labelled by u at ``search_lo``.  The range, the roots and the
    label come from :mod:`binquant.likelihood`.
    """
    u_lo, u_min, u_max = _u_extent(spec, cfg.grid_points)
    low, high = np.clip([u_min, u_max], cfg.a_lo, cfg.a_hi)
    half = 0.5 * (high - low)
    n = math.ceil(half / (0.25 * BRACKET_HALF_WIDTH))
    levels = np.clip(0.5 * (low + high) + half / max(n, 1) * np.arange(-n, n + 1), low, high)
    lvl, roots = _level_roots(spec, levels, cfg.grid_points, polish=False)
    count = np.bincount(lvl, minlength=levels.size)
    # the roots of each level alternate in sign in its sum of CDFs, the first one +
    sign = np.where((np.arange(lvl.size) - (np.cumsum(count) - count)[lvl]) % 2, -1.0, 1.0)
    even = count % 2 == 0
    odd0 = np.bincount(lvl, sign * cdf(spec.density0, roots), levels.size) + even
    odd1 = np.bincount(lvl, sign * cdf(spec.density1, roots), levels.size) + even
    # the odd segments, (-inf, h1), [h2, h3), ... are {u < a} when u at search_lo is below a
    odd_first = u_lo < levels
    f = np.clip(np.where(odd_first, odd0, 1.0 - odd0), 0.0, 1.0)
    g = np.clip(np.where(odd_first, 1.0 - odd1, odd1), 0.0, 1.0)
    return levels, _mi_bits(spec.prior.p0, f, g)


def _candidate_levels(spec: ChannelSpec, cfg: SolverConfig) -> tuple[np.ndarray, float, float]:
    """Scan vertices of the MI peaks within PEAK_MARGIN_BITS of the best scanned level, that level and its MI.

    The paper's optimum is a level-set quantizer, so the ranking scans
    levels (:func:`_level_scan`).  The levels near the best form runs in
    level order; each run, merged with any run whose end lies within two
    bracket half-widths, gives its best level, so a single-peaked MI curve
    gives one candidate however flat or jagged its top is at the scan's
    resolution.  Each candidate is the vertex of the parabola through the
    MI at that level and at its two scan neighbours (:func:`_scan_vertex`).
    """
    levels, mi = _level_scan(spec, cfg)
    best = int(np.argmax(mi))
    near_best = np.flatnonzero(mi >= mi[best] - PEAK_MARGIN_BITS)
    cuts = 1 + np.flatnonzero(
        (np.diff(near_best) > 1) & (np.diff(levels[near_best]) > 2.0 * BRACKET_HALF_WIDTH)
    )
    peaks = [int(g[np.argmax(mi[g])]) for g in np.split(near_best, cuts) if g.size]
    return np.array([_scan_vertex(levels, mi, i) for i in peaks]), float(levels[best]), float(mi[best])


def _scan_vertex(levels: np.ndarray, mi: np.ndarray, i: int) -> float:
    """The vertex of the parabola through the scan's MI at ``levels[i]`` and its two neighbours.

    The MI at level i is the highest of the three, so the vertex lies
    between the midpoints of its two gaps.  Where the three points are not
    strictly concave (a neighbour at the same level included), or level i
    ends the scan, it is ``levels[i]``.
    """
    if not 0 < i < levels.size - 1:
        return float(levels[i])
    (x0, x1, x2), (m0, m1, m2) = levels[i - 1 : i + 2].tolist(), mi[i - 1 : i + 2].tolist()
    d0, d2 = x1 - x0, x2 - x1
    # d0 d2 times the drop in slope from [x0, x1] to [x1, x2]
    curvature = d0 * (m1 - m2) + d2 * (m1 - m0)
    if not curvature > 0.0:
        return x1
    return x1 + 0.5 * (d2 * d2 * (m1 - m0) - d0 * d0 * (m1 - m2)) / curvature


def _chandrupatla_t(x1: float, f1: float, x2: float, f2: float, x3: float, f3: float) -> float:
    """Chandrupatla's point (Adv. Eng. Software 28, 1997), as the fraction t of the way from x1 to x2.

    The inverse quadratic point of the three levels where that is monotone
    on the bracket, else the midpoint; the secant point when F does not
    have the same sign at x3 as at x1.
    """
    if not f1 * f3 > 0.0:
        return f1 / (f1 - f2)
    xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
    if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
        return f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
    return 0.5


def _candidate_search(fn, v: float, a_lo: float, a_hi: float, xtol: float, max_rounds: int) -> tuple[str, float]:
    """The level search from the scan vertex ``v``, with F given as ``fn``.

    Each round is one call of ``fn``, which maps an array of levels to F at
    each, NaN where F has none.  Round 0 takes v - d, v and v + d
    (d = _VERTEX_HALF_WIDTH), clipped to [a_lo, a_hi].  A zero at v is the
    root.  Else the sign of F(v) says on which side of v the + to - change
    lies, and the end on that side, v +- d, moves out to v +- w, 2w, 4w, ...
    (w = BRACKET_HALF_WIDTH / 4, the scan's largest spacing), a level a
    round, until F there is 0, the root, or has the other sign than F(v), so
    a vertex within d of the zero needs no walk.  F is NaN at degenerate
    levels, which lie beyond the last levels where F has a value, so once
    the end lands on a NaN the walk bisects between the last level where F
    had the sign of F(v) and the nearest NaN instead.  Each narrowing round
    then takes the Chandrupatla point x (:func:`_chandrupatla_t`) and the
    guards x +- xtol / 2, every level at least xtol / 4 inside the bracket,
    so the round in which x lands within xtol / 2 of a zero also closes it.
    x1 is the walk's last level with the sign of F(v), then the end a round
    evaluated (of two, the one where |F| is smaller); x3 is the level
    before x1 on the walk (v +- d on the other side when x1 is v), then the
    far guard beyond x1, else the old end there.  Returns ``("level", a)``
    for a zero or for x1 once the bracket is at most ``xtol`` wide,
    ``("edge", a)`` when the walk reached the edge a with no sign change,
    and ``("nan", a)`` when F is NaN at v (a = v - d when F is NaN there
    too, else v), at a narrowing level a, or at a level a within ``xtol`` of
    the walk's last level with the sign of F(v).  F at v +- d on the other
    side serves only as x3, where a NaN gives the secant point.  Raises
    NotConvergedError past ``max_rounds`` narrowing rounds.
    """
    w, d = 0.25 * BRACKET_HALF_WIDTH, _VERTEX_HALF_WIDTH
    left, right = max(v - d, a_lo), min(v + d, a_hi)
    f_left, f_v, f_right = fn(np.array([left, v, right])).tolist()
    if f_v == 0.0:
        return "level", v
    if math.isnan(f_v):
        return "nan", left if math.isnan(f_left) else v
    # the walk's step, doubled before each level it takes after v +- d: v +- w, 2w, 4w, ...
    inner, step, ends = (v, f_v), math.copysign(0.5 * w, f_v), [(left, f_left), (right, f_right)]
    beyond, (x, fx) = ends if f_v > 0.0 else ends[::-1]
    nan_at = None  # the level nearest v where F was NaN on the walk's side
    # until F is 0 or has the other sign than the step (both comparisons are False for NaN)
    while math.isnan(fx) or (fx > 0.0 if step > 0.0 else fx < 0.0):
        if math.isnan(fx):
            nan_at = x
        elif x in (a_lo, a_hi):
            return "edge", x
        else:
            step, beyond, inner = 2.0 * step, inner, (x, fx)
        if nan_at is None:
            x = min(max(v + step, a_lo), a_hi)
        elif abs(nan_at - inner[0]) <= xtol:
            return "nan", nan_at
        else:
            x = 0.5 * (inner[0] + nan_at)
        (fx,) = fn(np.array([x])).tolist()
    if fx == 0.0:
        return "level", x
    (x1, f1), (x2, f2), (x3, f3) = inner, (x, fx), beyond
    for rounds in itertools.count():
        if abs(x2 - x1) <= xtol:
            return "level", x1
        if rounds == max_rounds:
            raise NotConvergedError(
                f"level search from {v:.6g} used all {max_rounds} rounds with its bracket "
                f"still wider than {xtol:g} ({abs(x2 - x1):.3e} wide)"
            )
        t_min = 0.25 * xtol / abs(x2 - x1)
        x = x1 + min(max(_chandrupatla_t(x1, f1, x2, f2, x3, f3), t_min), 1.0 - t_min) * (x2 - x1)
        inner_lo, inner_hi = min(x1, x2) + 0.25 * xtol, max(x1, x2) - 0.25 * xtol
        points = [p for p in (x - 0.5 * xtol, x, x + 0.5 * xtol) if p == x or inner_lo <= p <= inner_hi]
        values = fn(np.array(points)).tolist()
        if any(map(math.isnan, values)):
            return "nan", min(p for p, fp in zip(points, values) if math.isnan(fp))
        seq = sorted([(x1, f1), (x2, f2), *zip(points, values)])
        # the first level where F is 0 or has the other sign than at the lower end
        j = next(j for j, (_, fp) in enumerate(seq) if fp == 0.0 or (fp > 0.0) != (seq[0][1] > 0.0))
        if seq[j][1] == 0.0:
            return "level", seq[j][0]
        k = min((k for k in (j - 1, j) if 0 < k < len(seq) - 1), key=lambda k: abs(seq[k][1]))
        beyond = min(1, k - 1) if k < j else max(len(seq) - 2, k + 1)
        (x1, f1), (x2, f2), (x3, f3) = seq[k], seq[2 * j - 1 - k], seq[beyond]


def solve(spec: ChannelSpec, config: SolverConfig | None = None) -> QuantizerDesign:
    """Find the optimal binary quantizer for ``spec``.

    (1) Rank quantizers and take the scan vertex of each MI peak
    (:func:`_candidate_levels`); (2) run one level search from each
    (:func:`_candidate_search`), one after another, each round one
    :func:`~binquant.channel.stationarity` call (``iterations`` counts the
    calls after the first); (3) keep the level whose level functionals
    give the largest mutual information, the scan's best level too where
    its MI beats every searched level's by more than _NO_INFORMATION_BITS.
    The spec keeps the level sets of the last call, so a design at a level
    of the last round polishes no root again.

    Raises NoSignChangeError when no quantizer of the scan or the search
    carries more than _NO_INFORMATION_BITS (the channel carries no
    information, as with identical conditional densities) or no candidate
    can be bracketed (the best level in range is at its edge),
    NotConvergedError when a search is still open after ``max_iter``
    narrowing rounds, and DegenerateChannelError when no candidate is left
    and F was degenerate at one of its levels.
    """
    cfg = config or SolverConfig()
    vertices, scan_level, scan_best = _candidate_levels(spec, cfg)
    calls = []  # the levels of each stationarity call

    def f_at(levels):
        calls.append(levels)
        return stationarity(spec, levels, cfg.grid_points)

    outcomes = [_candidate_search(f_at, v, cfg.a_lo, cfg.a_hi, cfg.tol_a, cfg.max_iter) for v in vertices.tolist()]
    fns = [level_functionals(spec, a, cfg.grid_points) for kind, a in outcomes if kind == "level"]
    mis = _mi_bits(spec.prior.p0, np.array([fn.correct0 for fn in fns]), np.array([fn.correct1 for fn in fns]))
    if max(scan_best, mis.max(initial=0.0)) <= _NO_INFORMATION_BITS:
        raise NoSignChangeError(
            f"neither the level scan nor the level search found a quantizer carrying more than "
            f"{_NO_INFORMATION_BITS:g} bits, so the channel carries no information"
        )
    if not fns:
        degenerate = [a for kind, a in outcomes if kind == "nan"]
        if degenerate:
            stationarity(spec, degenerate[-1], cfg.grid_points)  # a scalar level raises DegenerateChannelError
        raise NoSignChangeError(
            "no + to - sign change of the stationarity function brackets the "
            f"best levels of the admissible range [{cfg.a_lo}, {cfg.a_hi}], so "
            "the mutual information is highest at its edge; widen the range"
        )
    if scan_best > mis.max() + _NO_INFORMATION_BITS:
        # no search reached the scan's best level set: read it too, and keep whichever carries more
        fns.append(level_functionals(spec, scan_level, cfg.grid_points))
        mis = np.append(mis, _mi_bits(spec.prior.p0, fns[-1].correct0, fns[-1].correct1))

    fn, mi_bits = fns[int(np.argmax(mis))], float(mis.max())
    matrix = ChannelMatrix(a11=fn.correct0, a22=fn.correct1)
    r_star = (spec.prior.p1 / spec.prior.p0) * (1.0 - fn.level) / fn.level
    ratios = likelihood_ratio(spec, np.asarray(fn.roots))
    return QuantizerDesign(
        a_star=fn.level,
        r_star=r_star,
        thresholds=fn.roots,
        mapping=fn.mapping,
        channel=matrix,
        mi_bits=mi_bits,
        stationarity_residual=float(np.max(np.abs(ratios - r_star), initial=0.0) / r_star),
        iterations=len(calls) - 1,
    )


def predict_single_threshold(spec: ChannelSpec, grid_points: int = DEFAULT_GRID_POINTS) -> bool:
    """Predict, before solving, whether one threshold suffices.

    True when the likelihood ratio is strictly monotone: every level set is
    then one point, so one threshold is optimal (the paper's theorem).  A
    density1 that is a translate of a strictly log-concave or log-convex
    density0 is a corollary, as its ratio is strictly monotone.  Also true
    for a flat ratio (identical densities), where no quantizer carries
    information.  On any other channel a true prediction is confirmed by
    :func:`solve` returning exactly one threshold.
    """
    mono = classify_monotonicity(spec, grid_points)
    return mono.flat or mono.verdict is not Monotonicity.NON_MONOTONIC
