"""Sorted-cell candidate search and batched level search for the optimal binary quantizer.

The optimal quantizer is the full root set of u(y) = a* for one level a*, so
every candidate is a prefix of the search grid's cells sorted by posterior
level (Burshtein et al., Ann. Stat. 1992; Kurkoski & Yagi, IEEE T-IT 2014).
The stationarity function F may change sign from + to - more than once, so
:func:`solve` brackets F next to each MI peak of those prefixes and narrows
all brackets together by Chandrupatla's inverse-quadratic search.  Each
round of the search is one :func:`~binquant.channel.stationarity` call on a
batch of levels: round 0 takes c and c +- BRACKET_HALF_WIDTH for every
candidate c, and each narrowing round the next point of every open bracket
with two guards tol_a / 2 to either side, so the round that lands within
tol_a / 2 of the zero also closes the bracket (three rounds on each shipped
channel but the symmetric one, which takes one).  The grid only ranks:
every reported number comes from one
:func:`~binquant.channel.level_functionals` call at a*, whose level set the
last batch found, where every threshold carries the likelihood ratio
r* = (p1/p0)(1 - a*)/a*; the worst relative deviation from it is the
design's ``stationarity_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, Mapping, _mi_bits, level_functionals, mutual_information
from .channel import stationarity
from .density import Thresholds, cdf
from .errors import InvalidSpecError, NoSignChangeError, NotConvergedError
from .likelihood import DEFAULT_GRID_POINTS, ChannelSpec, Monotonicity, _search_grid
from .likelihood import classify_monotonicity, likelihood_ratio

__all__ = ["SolverConfig", "QuantizerDesign", "solve", "predict_single_threshold"]

#: Sorted-cell MI peaks within this many bits of the best one are candidates.
PEAK_MARGIN_BITS = 1e-3

#: Distance from a candidate level to the first levels round 0 evaluates next to it.
BRACKET_HALF_WIDTH = 0.01


@dataclass(frozen=True)
class SolverConfig:
    """Level-search parameters; the defaults solve all shipped channels < 1 s.

    ``[a_lo, a_hi]`` is the admissible level range, ``tol_a`` the width the
    level search narrows each sign-change bracket to, ``max_iter`` its
    budget of narrowing rounds (each narrows all open brackets), and
    ``grid_points`` the size of the search grid that ranks candidates and
    brackets the level-set roots.
    """

    a_lo: float = 1e-6
    a_hi: float = 1.0 - 1e-6
    tol_a: float = 1e-10
    max_iter: int = 200
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not (0.0 < self.a_lo < self.a_hi < 1.0):
            raise InvalidSpecError(
                f"need 0 < a_lo < a_hi < 1, got a_lo={self.a_lo!r}, a_hi={self.a_hi!r}"
            )
        if not (math.isfinite(self.tol_a) and self.tol_a > 0.0):
            raise InvalidSpecError(f"tol_a must be finite and > 0, got {self.tol_a!r}")
        if self.max_iter < 1:
            raise InvalidSpecError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.grid_points < 64:
            raise InvalidSpecError(f"grid_points must be >= 64, got {self.grid_points!r}")


@dataclass(frozen=True)
class QuantizerDesign:
    """A solved, certified quantizer.

    ``a_star`` is the optimal posterior level, ``r_star`` the common
    likelihood ratio (p1/p0)(1-a*)/a* at every threshold, and
    ``stationarity_residual`` the worst relative deviation
    max_i |r(h_i) - r*| / r* actually measured.  ``mi_bits`` is recomputed
    from exact partition masses at the final thresholds, never interpolated.
    ``iterations`` is the number of narrowing rounds of the level search
    (0 when F was exactly 0 at a level that round 0 evaluated).
    """

    a_star: float
    r_star: float
    thresholds: Thresholds
    mapping: Mapping
    channel: ChannelMatrix
    mi_bits: float
    stationarity_residual: float
    iterations: int


def _candidate_levels(spec: ChannelSpec, cfg: SolverConfig) -> np.ndarray:
    """Levels of the sorted-cell MI peaks within PEAK_MARGIN_BITS of the best.

    Each grid point is the centre of a cell reaching halfway to its
    neighbours (the outer cells reach +-inf).  With the n cells sorted by u
    and u = 0, 1 put at the ends, the first k of them (k = 0..n) are the
    quantizer {u < a} for every level a between the k-th and the (k+1)-th
    u, placed at the middle of that interval, so cumulative sums give a11
    and a22 of all these quantizers at once.  The quantizers near the best
    form runs in level order; each run, merged with any run whose end lies
    within two bracket half-widths, gives its best level, so a single-peaked
    MI curve gives one candidate however flat or jagged its top is at cell
    resolution.
    """
    grid = _search_grid(spec, cfg.grid_points)
    order = np.argsort(grid.u, kind="stable")
    edges = 0.5 * (grid.ys[1:] + grid.ys[:-1])
    m0 = np.diff(cdf(spec.density0, edges), prepend=0.0, append=1.0)[order]
    m1 = np.diff(cdf(spec.density1, edges), prepend=0.0, append=1.0)[order]
    u = np.concatenate(([0.0], grid.u[order], [1.0]))
    inside = (u[1:] >= cfg.a_lo) & (u[:-1] <= cfg.a_hi)
    levels = np.clip(0.5 * (u[1:] + u[:-1])[inside], cfg.a_lo, cfg.a_hi)
    a11 = np.concatenate(([0.0], np.cumsum(m0)))
    a22 = 1.0 - np.concatenate(([0.0], np.cumsum(m1)))
    mi = _mi_bits(spec.prior.p0, a11, a22)[inside]
    near_best = np.flatnonzero(mi >= mi.max(initial=0.0) - PEAK_MARGIN_BITS)
    cuts = 1 + np.flatnonzero(
        (np.diff(near_best) > 1) & (np.diff(levels[near_best]) > 2.0 * BRACKET_HALF_WIDTH)
    )
    return np.array([levels[g[np.argmax(mi[g])]] for g in np.split(near_best, cuts) if g.size])


def _bracket(fn, candidates, a_lo: float, a_hi: float):
    """Brackets of a + to - sign change of ``fn`` next to each candidate level.

    ``fn`` maps an array of levels to its values, NaN where it has none.
    Round 0 evaluates it at c - w, c and c + w for every candidate c (w =
    BRACKET_HALF_WIDTH, clipped to [a_lo, a_hi]).  A zero at c is the root;
    else the sign of fn(c) says on which side of c the change lies, and an
    end on that side that does not bracket it moves out to c +- 2w, 4w, ...
    in later rounds, one call for all candidates still moving, until it
    does.  A candidate is dropped when that end reaches the range's edge
    without a sign change, or when fn is NaN at one of its levels.

    Returns the brackets as ``(x1, f1, x2, f2, x3, f3)``: [x1, x2] holds the
    change, x1 is a zero of fn (f1 = 0) or the end nearer c, and x3 the
    level evaluated next to x1 outside the bracket (NaN if none); and, for
    each candidate dropped at a NaN, its lowest level where fn is NaN.
    """
    w = BRACKET_HALF_WIDTH
    grid = np.clip(np.add.outer(candidates, [-w, 0.0, w]), a_lo, a_hi)
    rows = zip(grid.tolist(), fn(grid.ravel()).reshape(grid.shape).tolist())
    brackets, degenerate, moving = [], [], []
    for (left, c, right), (f_left, f_c, f_right) in rows:
        if math.isnan(f_left + f_c + f_right):
            degenerate.append(next(a for a, v in ((left, f_left), (c, f_c), (right, f_right)) if math.isnan(v)))
        elif f_c == 0.0:
            brackets.append((c, 0.0, right, f_right, math.nan, math.nan))
        elif f_c > 0.0:  # (c, step, inner end, the level beyond it, the end being tried)
            moving.append((c, w, (c, f_c), (left, f_left), (right, f_right)))
        else:
            moving.append((c, -w, (c, f_c), (right, f_right), (left, f_left)))
    while moving:
        walk = []
        for c, step, inner, beyond, (probe, f_probe) in moving:
            if math.isnan(f_probe):
                degenerate.append(probe)
            elif f_probe == 0.0:
                brackets.append((probe, 0.0, *inner, math.nan, math.nan))
            elif (f_probe > 0.0) != (step > 0.0):
                brackets.append((*inner, probe, f_probe, *beyond))
            elif probe not in (a_lo, a_hi):
                walk.append((c, 2.0 * step, (probe, f_probe), inner, min(max(c + 2.0 * step, a_lo), a_hi)))
        values = fn(np.array([entry[-1] for entry in walk])).tolist() if walk else []
        moving = [(*entry[:-1], (entry[-1], value)) for entry, value in zip(walk, values)]
    return brackets, degenerate


def _chandrupatla_t(x1: float, f1: float, x2: float, f2: float, x3: float, f3: float) -> float:
    """Chandrupatla's point (Adv. Eng. Software 28, 1997), as the fraction t of the way from x1 to x2.

    The inverse quadratic point of the three levels where that is monotone
    on the bracket, else the midpoint; the secant point when x3 is missing
    or fn does not have the same sign there as at x1.
    """
    if not f1 * f3 > 0.0:
        return f1 / (f1 - f2)
    xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
    if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
        return f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
    return 0.5


def _narrow(fn, brackets, xtol: float, max_rounds: int):
    """Narrow every bracket of :func:`_bracket` to ``xtol``, all of them in each call of ``fn``.

    A round evaluates fn, in one call, at each open bracket's Chandrupatla
    point x (:func:`_chandrupatla_t`) and at the guards x +- xtol / 2, every
    level at least xtol / 4 inside its bracket (a guard closer to an end is
    left out).  The sign change then lies between two adjacent levels, so
    the round in which x lands within xtol / 2 of a zero also closes its
    bracket.  A bracket closes at an exact zero, or once it is at most
    ``xtol`` wide, at the end evaluated last (of two evaluated together,
    the one where |fn| is smaller), which it keeps as x1; a bracket whose
    x1 is a zero of fn takes no round.  A bracket that meets a NaN is
    dropped.

    Returns the level of each bracket not dropped, the levels where fn was
    NaN, and the number of rounds; raises NotConvergedError when a bracket
    is still open after ``max_rounds`` rounds.
    """
    levels, degenerate, rounds = [], [], 0
    open_brackets = brackets
    while True:
        still = []
        for x1, f1, x2, f2, x3, f3 in open_brackets:
            if f1 == 0.0 or abs(x2 - x1) <= xtol:
                levels.append(x1)
            else:
                still.append((x1, f1, x2, f2, x3, f3))
        if not still:
            return levels, degenerate, rounds
        if rounds == max_rounds:
            widest = max(abs(b[2] - b[0]) for b in still)
            raise NotConvergedError(
                f"level search used all {max_rounds} rounds with {len(still)} bracket(s) "
                f"still wider than {xtol:g} (widest {widest:.3e})"
            )
        points = []
        for x1, f1, x2, f2, x3, f3 in still:
            t_min = 0.25 * xtol / abs(x2 - x1)
            x = x1 + min(max(_chandrupatla_t(x1, f1, x2, f2, x3, f3), t_min), 1.0 - t_min) * (x2 - x1)
            inner_lo, inner_hi = min(x1, x2) + 0.25 * xtol, max(x1, x2) - 0.25 * xtol
            points.append([p for p in (x - 0.5 * xtol, x, x + 0.5 * xtol) if p == x or inner_lo <= p <= inner_hi])
        values = fn(np.array([p for pts in points for p in pts])).tolist()
        rounds += 1
        open_brackets, stop = [], 0
        for (x1, f1, x2, f2, _, _), pts in zip(still, points):
            start, stop = stop, stop + len(pts)
            seq = sorted([(x1, f1), (x2, f2), *zip(pts, values[start:stop])])
            nan = [a for a, v in seq if math.isnan(v)]
            if nan:
                degenerate.append(nan[0])
                continue
            # the first level where fn is 0 or has the other sign than at the lower end
            j = next(j for j, (_, v) in enumerate(seq) if v == 0.0 or (v > 0.0) != (seq[0][1] > 0.0))
            if seq[j][1] == 0.0:
                open_brackets.append((*seq[j], *seq[j - 1], math.nan, math.nan))
                continue
            # x1: the end evaluated in this round (of two, where |fn| is smaller); x3: the level
            # of this round farthest outside the bracket beyond x1, else the old end there
            k = min((k for k in (j - 1, j) if 0 < k < len(seq) - 1), key=lambda k: abs(seq[k][1]))
            beyond = min(1, k - 1) if k < j else max(len(seq) - 2, k + 1)
            open_brackets.append((*seq[k], *seq[2 * j - 1 - k], *seq[beyond]))


def solve(spec: ChannelSpec, config: SolverConfig | None = None) -> QuantizerDesign:
    """Find the optimal binary quantizer for ``spec``.

    (1) Rank the sorted-cell quantizers and take the candidate levels
    (:func:`_candidate_levels`); (2) bracket a + to - sign change of F next
    to each (:func:`_bracket`); (3) narrow all brackets to ``tol_a`` together
    (:func:`_narrow`), whose rounds ``iterations`` counts; (4) keep the
    narrowed level whose level functionals give the largest mutual
    information.  Each round of (2) and (3) is one
    :func:`~binquant.channel.stationarity` call on the levels of all
    candidates, and the spec keeps that call's level sets, so the design at
    a* polishes no root again.

    Raises NoSignChangeError when no candidate can be bracketed (the best
    level in range is at its edge, or identical conditional densities carry
    no information), NotConvergedError past ``max_iter`` narrowing rounds,
    and DegenerateChannelError when no candidate is left and F was
    degenerate at one of its levels.
    """
    cfg = config or SolverConfig()
    f = lambda levels: stationarity(spec, levels, cfg.grid_points)
    brackets, degenerate = _bracket(f, _candidate_levels(spec, cfg), cfg.a_lo, cfg.a_hi)
    levels, degenerate_inside, rounds = _narrow(f, brackets, cfg.tol_a, cfg.max_iter)
    if not levels:
        if classify_monotonicity(spec, cfg.grid_points).flat:
            raise NoSignChangeError(
                "the posterior level is constant, so the channel carries no "
                "information (mutual information is identically 0)"
            )
        degenerate += degenerate_inside
        if degenerate:
            stationarity(spec, degenerate[-1], cfg.grid_points)  # a scalar level raises DegenerateChannelError
        raise NoSignChangeError(
            "no + to - sign change of the stationarity function brackets the "
            f"best levels of the admissible range [{cfg.a_lo}, {cfg.a_hi}], so "
            "the mutual information is highest at its edge; widen the range"
        )

    fn = max(
        (level_functionals(spec, a, cfg.grid_points) for a in levels),
        key=lambda fn: _mi_bits(spec.prior.p0, fn.correct0, fn.correct1),
    )
    matrix = ChannelMatrix(a11=fn.correct0, a22=fn.correct1)
    r_star = (spec.prior.p1 / spec.prior.p0) * (1.0 - fn.level) / fn.level
    ratios = likelihood_ratio(spec, np.asarray(fn.roots))
    return QuantizerDesign(
        a_star=fn.level,
        r_star=r_star,
        thresholds=fn.roots,
        mapping=fn.mapping,
        channel=matrix,
        mi_bits=mutual_information(spec.prior, matrix),
        stationarity_residual=float(np.max(np.abs(ratios - r_star), initial=0.0) / r_star),
        iterations=rounds,
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
