"""Sorted-cell candidate search and batched level search for the optimal binary quantizer.

The optimal quantizer is the full root set of u(y) = a* for one level a*, so
every candidate is a prefix of the search grid's cells sorted by posterior
level (Burshtein et al., Ann. Stat. 1992; Kurkoski & Yagi, IEEE T-IT 2014).
The stationarity function F may change sign from + to - more than once, so
:func:`solve` runs one level search next to each MI peak of those prefixes,
which brackets a + to - change of F and narrows the bracket by
Chandrupatla's inverse-quadratic search; one batching loop runs all of them
in shared rounds, each one :func:`~binquant.channel.stationarity` call
(three on each shipped channel but the symmetric one, which takes one).
The grid only ranks: every reported number comes from one
:func:`~binquant.channel.level_functionals` call at a*, where every
threshold carries the likelihood ratio r* = (p1/p0)(1 - a*)/a*; the worst
relative deviation from it is the design's ``stationarity_residual``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, Mapping, _mi_bits, level_functionals, mutual_information, stationarity
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
    level search narrows each sign-change bracket to, ``max_iter`` the
    budget of narrowing rounds of each candidate's search, and
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
    ``iterations`` is the number of rounds of the level search after round
    0, that is :func:`~binquant.channel.stationarity` calls - 1 (walk and
    narrowing rounds, shared by all candidates; 0 when round 0 settled all).
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


def _candidate_search(c: float, a_lo: float, a_hi: float, xtol: float, max_rounds: int):
    """The level search next to the candidate level ``c``: a generator that :func:`_search` runs.

    Each round it yields the levels it needs and is sent F at them.  Round 0
    takes c - w, c and c + w (w = BRACKET_HALF_WIDTH, clipped to [a_lo,
    a_hi]).  A zero at c is the root; else the sign of F(c) says on which
    side the + to - change lies, and the end on that side moves out to
    c +- 2w, 4w, ..., a level a round, until it brackets the change.  Each
    narrowing round then takes the Chandrupatla point x
    (:func:`_chandrupatla_t`) and the guards x +- xtol / 2, every level at
    least xtol / 4 inside the bracket, so the round in which x lands within
    xtol / 2 of a zero also closes it.  x1 is the end nearer c after the
    walk, then the end a round evaluated (of two, the one where |F| is
    smaller); x3 is the level before x1 in the walk, then the far guard
    beyond x1, else the old end there.  Returns ``("level", a)`` for a zero
    or for x1 once the bracket is at most ``xtol`` wide, and ``("edge",
    a)`` when the walk reached the edge a with no sign change; raises
    NotConvergedError past ``max_rounds`` narrowing rounds.
    """
    w = BRACKET_HALF_WIDTH
    left, right = max(c - w, a_lo), min(c + w, a_hi)
    f_left, f_c, f_right = yield [left, c, right]
    if f_c == 0.0:
        return "level", c
    inner, step, ends = (c, f_c), math.copysign(w, f_c), [(left, f_left), (right, f_right)]
    beyond, (x, fx) = ends if f_c > 0.0 else ends[::-1]
    while fx != 0.0 and (fx > 0.0) == (step > 0.0):
        if x in (a_lo, a_hi):
            return "edge", x
        step, beyond, inner = 2.0 * step, inner, (x, fx)
        x = min(max(c + step, a_lo), a_hi)
        (fx,) = yield [x]
    if fx == 0.0:
        return "level", x
    (x1, f1), (x2, f2), (x3, f3) = inner, (x, fx), beyond
    for rounds in itertools.count():
        if abs(x2 - x1) <= xtol:
            return "level", x1
        if rounds == max_rounds:
            raise NotConvergedError(
                f"level search next to {c:.6g} used all {max_rounds} rounds with its bracket "
                f"still wider than {xtol:g} ({abs(x2 - x1):.3e} wide)"
            )
        t_min = 0.25 * xtol / abs(x2 - x1)
        x = x1 + min(max(_chandrupatla_t(x1, f1, x2, f2, x3, f3), t_min), 1.0 - t_min) * (x2 - x1)
        inner_lo, inner_hi = min(x1, x2) + 0.25 * xtol, max(x1, x2) - 0.25 * xtol
        points = [p for p in (x - 0.5 * xtol, x, x + 0.5 * xtol) if p == x or inner_lo <= p <= inner_hi]
        seq = sorted([(x1, f1), (x2, f2), *zip(points, (yield points))])
        # the first level where F is 0 or has the other sign than at the lower end
        j = next(j for j, (_, v) in enumerate(seq) if v == 0.0 or (v > 0.0) != (seq[0][1] > 0.0))
        if seq[j][1] == 0.0:
            return "level", seq[j][0]
        k = min((k for k in (j - 1, j) if 0 < k < len(seq) - 1), key=lambda k: abs(seq[k][1]))
        beyond = min(1, k - 1) if k < j else max(len(seq) - 2, k + 1)
        (x1, f1), (x2, f2), (x3, f3) = seq[k], seq[2 * j - 1 - k], seq[beyond]


def _search(fn, searches):
    """Run the level searches of all candidates together, one call of ``fn`` per round.

    ``fn`` maps an array of levels to F at each, NaN where F has none.  Each
    round puts the levels of every live search (:func:`_candidate_search`)
    into one call and sends each search its values; a search with a NaN
    among them is dropped as ``("nan", a)`` at its lowest such level a.
    Searches leave the batch when done, so each outcome equals that of its
    search run alone.  Returns the outcomes, in order, and the number of
    rounds after round 0 (calls of ``fn`` - 1).
    """
    outcomes = [None] * len(searches)
    asking = {i: next(search) for i, search in enumerate(searches)}
    for rounds in itertools.count():
        values = iter(fn(np.array([a for levels in asking.values() for a in levels])).tolist())
        batch, asking = asking, {}
        for i, levels in batch.items():
            f = [next(values) for _ in levels]
            nan = [a for a, v in zip(levels, f) if math.isnan(v)]
            if nan:
                outcomes[i] = ("nan", min(nan))
                continue
            try:
                asking[i] = searches[i].send(f)
            except StopIteration as done:
                outcomes[i] = done.value
        if not asking:
            return outcomes, rounds


def solve(spec: ChannelSpec, config: SolverConfig | None = None) -> QuantizerDesign:
    """Find the optimal binary quantizer for ``spec``.

    (1) Rank the sorted-cell quantizers and take the candidate levels
    (:func:`_candidate_levels`); (2) run one level search next to each
    (:func:`_candidate_search`), all in shared rounds of one
    :func:`~binquant.channel.stationarity` call each (:func:`_search`),
    whose rounds after round 0 ``iterations`` counts; (3) keep the level
    whose level functionals give the largest mutual information.  The spec
    keeps the level sets of the last call, so a design at a level of the
    last round polishes no root again.

    Raises NoSignChangeError when no candidate can be bracketed (the best
    level in range is at its edge, or identical conditional densities carry
    no information), NotConvergedError when a search is still open after
    ``max_iter`` narrowing rounds, and DegenerateChannelError when no
    candidate is left and F was degenerate at one of its levels.
    """
    cfg = config or SolverConfig()
    candidates = _candidate_levels(spec, cfg).tolist()
    searches = [_candidate_search(c, cfg.a_lo, cfg.a_hi, cfg.tol_a, cfg.max_iter) for c in candidates]
    outcomes, rounds = _search(lambda levels: stationarity(spec, levels, cfg.grid_points), searches)
    levels = [a for kind, a in outcomes if kind == "level"]
    if not levels:
        if classify_monotonicity(spec, cfg.grid_points).flat:
            raise NoSignChangeError(
                "the posterior level is constant, so the channel carries no "
                "information (mutual information is identically 0)"
            )
        degenerate = [a for kind, a in outcomes if kind == "nan"]
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
