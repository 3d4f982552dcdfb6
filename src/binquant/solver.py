"""Sorted-cell candidate search and bracketed level search for the optimal binary quantizer.

The optimal quantizer is the full root set of u(y) = a* for one level a*, so
every candidate is a prefix of the search grid's cells sorted by posterior
level (Burshtein et al., Ann. Stat. 1992; Kurkoski & Yagi, IEEE T-IT 2014).
The stationarity function F may change sign from + to - more than once, so
:func:`solve` brackets F around each MI peak of those prefixes and narrows
each bracket by Chandrupatla's inverse-quadratic search.  The grid only
ranks: every reported number comes from one
:func:`~binquant.channel.level_functionals` call at a*, where every
threshold carries the likelihood ratio r* = (p1/p0)(1 - a*)/a*; the worst
relative deviation from it is the design's ``stationarity_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, Mapping, _mi_bits, level_functionals, mutual_information
from .channel import stationarity
from .density import Thresholds, cdf
from .errors import DegenerateChannelError, InvalidSpecError, NoSignChangeError, NotConvergedError
from .likelihood import DEFAULT_GRID_POINTS, ChannelSpec, Monotonicity, _search_grid
from .likelihood import classify_monotonicity, likelihood_ratio

__all__ = ["SolverConfig", "QuantizerDesign", "solve", "predict_single_threshold"]

#: Sorted-cell MI peaks within this many bits of the best one are candidates.
PEAK_MARGIN_BITS = 1e-3

#: Half-width of the first F bracket around a candidate level.
BRACKET_HALF_WIDTH = 0.01


@dataclass(frozen=True)
class SolverConfig:
    """Level-search parameters; the defaults solve all shipped channels < 1 s.

    ``[a_lo, a_hi]`` is the admissible level range, ``tol_a`` the width the
    level search narrows each sign-change bracket to, ``max_iter`` its
    budget of steps per bracket, and ``grid_points`` the size of the search
    grid that ranks candidates and brackets the level-set roots.
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


def _bracket_end(spec: ChannelSpec, cfg: SolverConfig, level: float, step: float):
    """``(a, F(a))`` for the first a = level + step, + 2 step, + 4 step, ...
    (clipped to [a_lo, a_hi]) where F is 0 or has the sign of -step, or None
    once the range's edge does not."""
    while True:
        a = min(max(level + step, cfg.a_lo), cfg.a_hi)
        f = stationarity(spec, a, cfg.grid_points)
        if f * step <= 0.0:
            return a, f
        if a in (cfg.a_lo, cfg.a_hi):
            return None
        step *= 2.0


def _chandrupatla(fn, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float, max_steps: int):
    """Narrow the bracket [lo, hi] of a sign change of ``fn`` to ``xtol``; returns (level, steps).

    Chandrupatla's method (Adv. Eng. Software 28, 1997): each step evaluates
    ``fn`` at least xtol / 4 inside the bracket, at the inverse quadratic
    point of the last three points where that is monotone, else at the
    midpoint (first, the secant point).  An end where ``fn`` is 0 takes no
    step; else it stops at a zero or a bracket at most ``xtol`` wide, and
    returns the last point evaluated.  Raises NotConvergedError past
    ``max_steps``.
    """
    if f_lo == 0.0:
        return lo, 0
    # x1 is the last point evaluated, [x1, x2] the bracket and x3 the point dropped from it
    x1, f1, x2, f2, t, steps = hi, f_hi, lo, f_lo, f_hi / (f_hi - f_lo), 0
    while f1 != 0.0 and abs(x2 - x1) > xtol:
        if steps == max_steps:
            raise NotConvergedError(f"level search used all {max_steps} steps, [{float(x1)!r}, {float(x2)!r}] open")
        t_min = 0.25 * xtol / abs(x2 - x1)
        x = x1 + min(max(t, t_min), 1.0 - t_min) * (x2 - x1)
        fx, steps = fn(x), steps + 1
        if (fx > 0.0) == (f1 > 0.0):
            x1, f1, x3, f3 = x, fx, x1, f1
        else:
            x1, f1, x2, f2, x3, f3 = x, fx, x1, f1, x2, f2
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
    return x1, steps


def solve(spec: ChannelSpec, config: SolverConfig | None = None) -> QuantizerDesign:
    """Find the optimal binary quantizer for ``spec``.

    (1) Rank the sorted-cell quantizers and take the candidate levels
    (:func:`_candidate_levels`); (2) bracket a + to - sign change of F
    around each, from +- BRACKET_HALF_WIDTH outward; (3) narrow each bracket
    to ``tol_a`` by :func:`_chandrupatla`, whose steps over all brackets
    ``iterations`` counts; (4) keep the narrowed level whose level
    functionals give the largest mutual information.  Every F evaluation,
    bracket ends included, goes through
    :func:`~binquant.channel.stationarity`.

    Raises NoSignChangeError when no candidate can be bracketed (the best
    level in range is at its edge, or identical conditional densities carry
    no information),
    NotConvergedError past ``max_iter`` steps, and DegenerateChannelError
    when no candidate is bracketed and a bracket end was degenerate.
    """
    cfg = config or SolverConfig()
    brackets = []
    degenerate: DegenerateChannelError | None = None
    for level in _candidate_levels(spec, cfg):
        try:
            ends = [_bracket_end(spec, cfg, level, s * BRACKET_HALF_WIDTH) for s in (-1, 1)]
        except DegenerateChannelError as err:
            degenerate = err
            continue
        if None not in ends:
            (lo, f_lo), (hi, f_hi) = ends
            brackets.append((lo, hi, f_lo, f_hi))
    if not brackets:
        if classify_monotonicity(spec, cfg.grid_points).flat:
            raise NoSignChangeError(
                "the posterior level is constant, so the channel carries no "
                "information (mutual information is identically 0)"
            )
        if degenerate is not None:
            raise degenerate
        raise NoSignChangeError(
            "no + to - sign change of the stationarity function brackets the "
            f"best levels of the admissible range [{cfg.a_lo}, {cfg.a_hi}], so "
            "the mutual information is highest at its edge; widen the range"
        )

    searched = [
        _chandrupatla(lambda a: stationarity(spec, a, cfg.grid_points), *bracket, cfg.tol_a, cfg.max_iter)
        for bracket in brackets
    ]
    fn = max(
        (level_functionals(spec, a, cfg.grid_points) for a, _ in searched),
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
        iterations=sum(steps for _, steps in searched),
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
