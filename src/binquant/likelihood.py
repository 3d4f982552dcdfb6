"""Likelihood ratio, posterior level variable, and level-set root finding.

The two central scalar fields of a binary-input channel with output density
``density0``/``density1`` and prior ``(p0, p1)``:

* the likelihood ratio ``r(y) = density0(y) / density1(y)``, and
* the posterior level ``u(y) = p1 density1(y) / (p0 density0(y) + p1 density1(y))``,

a strictly decreasing one-to-one function of ``r``.  Candidate quantizer
thresholds at level ``a`` are the solutions of ``u(y) = a``; the solver in
:mod:`binquant.solver` searches over ``a``.

Nothing on the search grid depends on the level, so each :class:`ChannelSpec`
computes the grid, ``log r`` and ``u`` on it once per grid size and keeps them
(see :func:`_search_grid`); a level then costs only the sign scan of
``u - level``.  Every sign change is polished by :func:`_bracketed_secant`,
the Illinois modified regula falsi (Dowell & Jarratt, BIT 1971): secant steps
whose stale end is down-weighted, with bisection whenever a secant step would
leave its bracket, so it converges unconditionally.  The solver narrows its
bracket on the level with the same routine.  Derivative-based methods are
deliberately avoided because mixture derivatives are easy to get wrong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .density import DensityModel, Prior, Thresholds, log_pdf
from .errors import InvalidSpecError, NotConvergedError

__all__ = [
    "ChannelSpec",
    "channel_spec",
    "default_search_interval",
    "Monotonicity",
    "MonotonicityReport",
    "TranslateConcavity",
    "LevelSet",
    "likelihood_ratio",
    "log_likelihood_ratio",
    "posterior",
    "classify_monotonicity",
    "translate_log_concavity",
    "find_level_set",
]

DEFAULT_GRID_POINTS = 4096

#: Grid cells whose endpoints both sit within this band of the level are
#: flagged as tangency suspects instead of being refined.
TANGENCY_TOL = 1e-12

#: Root polishing stops once |u(y) - level| or the bracket width drops to this.
REFINE_TOL = 1e-12


@dataclass(frozen=True)
class ChannelSpec:
    """A binary-input channel: prior plus the two conditional output densities.

    ``search_lo``/``search_hi`` bound the window scanned for thresholds; they
    must cover every mixture mean of both densities with at least a
    10-standard-deviation margin, beyond which the tails carry < 1e-20 mass.
    Use :func:`channel_spec` to fill the default window.

    Each instance keeps its own search grids (:func:`_search_grid`), so two
    equal specs built separately each compute theirs once.
    """

    prior: Prior
    density0: DensityModel
    density1: DensityModel
    search_lo: float
    search_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.search_lo) and math.isfinite(self.search_hi)):
            raise InvalidSpecError("search interval must be finite")
        if not self.search_lo < self.search_hi:
            raise InvalidSpecError(
                f"search interval is empty: [{self.search_lo!r}, {self.search_hi!r}]"
            )
        lo_req, hi_req = default_search_interval(self.density0, self.density1)
        slack = 1e-9 * max(1.0, abs(lo_req), abs(hi_req))
        if self.search_lo > lo_req + slack or self.search_hi < hi_req - slack:
            raise InvalidSpecError(
                f"search interval [{self.search_lo!r}, {self.search_hi!r}] must cover "
                f"[{lo_req!r}, {hi_req!r}] (all means with a 10-sigma margin)"
            )
        object.__setattr__(self, "_grids", {})


def default_search_interval(density0: DensityModel, density1: DensityModel) -> tuple[float, float]:
    """Smallest admissible search window: means +- 10 x (largest stddev)."""
    comps = density0.components + density1.components
    means = [c.mean for c in comps]
    smax = max(c.stddev for c in comps)
    return min(means) - 10.0 * smax, max(means) + 10.0 * smax


def channel_spec(
    prior: Prior,
    density0: DensityModel,
    density1: DensityModel,
    search_lo: float | None = None,
    search_hi: float | None = None,
) -> ChannelSpec:
    """Build a :class:`ChannelSpec`, defaulting the search window if omitted."""
    lo_def, hi_def = default_search_interval(density0, density1)
    return ChannelSpec(
        prior=prior,
        density0=density0,
        density1=density1,
        search_lo=lo_def if search_lo is None else float(search_lo),
        search_hi=hi_def if search_hi is None else float(search_hi),
    )


def log_likelihood_ratio(spec: ChannelSpec, y):
    """log(density0(y) / density1(y)), exact in the tails (log-space pdfs)."""
    return log_pdf(spec.density0, y) - log_pdf(spec.density1, y)


def likelihood_ratio(spec: ChannelSpec, y):
    """The density quotient r(y) = density0(y) / density1(y) > 0."""
    return np.exp(log_likelihood_ratio(spec, y))


def posterior(spec: ChannelSpec, y):
    """Posterior level u(y) = P(X=1 | Y=y) in (0, 1).

    Computed as a stable logistic of the log-likelihood ratio,
    ``u = 1 / (1 + (p0/p1) r(y))``, so it never overflows in the tails;
    it is strictly decreasing in ``r``.
    """
    t = math.log(spec.prior.p1 / spec.prior.p0) - log_likelihood_ratio(spec, y)
    u = expit(np.asarray(t))
    return float(u) if np.ndim(y) == 0 else u


class _Grid(NamedTuple):
    """The level-independent search grid of one channel; arrays are read-only."""

    ys: np.ndarray
    log_r: np.ndarray
    u: np.ndarray


def _search_grid(spec: ChannelSpec, grid_points: int) -> _Grid:
    """The uniform grid over the search window, with log r and u on it.

    Computed on first use for each ``grid_points`` and kept on ``spec``.
    """
    if grid_points < 64:
        raise InvalidSpecError(f"grid_points must be >= 64, got {grid_points}")
    grid = spec._grids.get(grid_points)
    if grid is None:
        ys = np.linspace(spec.search_lo, spec.search_hi, grid_points)
        grid = _Grid(ys, log_likelihood_ratio(spec, ys), posterior(spec, ys))
        for arr in grid:
            arr.flags.writeable = False
        spec._grids[grid_points] = grid
    return grid


class Monotonicity(enum.Enum):
    STRICTLY_INCREASING = "StrictlyIncreasing"
    STRICTLY_DECREASING = "StrictlyDecreasing"
    NON_MONOTONIC = "NonMonotonic"


@dataclass(frozen=True)
class MonotonicityReport:
    """Numerical monotonicity verdict for the likelihood ratio.

    This is a finite-grid verdict, not a proof, so the grid resolution it was
    established on travels with it.  ``flat`` marks the degenerate case where
    the log-ratio is constant to within the strictness threshold everywhere
    (identical densities).
    """

    verdict: Monotonicity
    grid_points: int
    flat: bool = False


def classify_monotonicity(spec: ChannelSpec, grid_points: int = DEFAULT_GRID_POINTS) -> MonotonicityReport:
    """Classify the likelihood ratio as strictly monotone or not.

    Evaluates log r(y) on a uniform grid over the search window and checks
    the sign of successive finite differences.  Differences smaller than
    1e-12 in magnitude (the double-precision noise floor for log-pdf
    differences) count as violations of strictness.
    """
    diffs = np.diff(_search_grid(spec, grid_points).log_r)
    if np.all(diffs > 1e-12):
        return MonotonicityReport(Monotonicity.STRICTLY_INCREASING, grid_points)
    if np.all(diffs < -1e-12):
        return MonotonicityReport(Monotonicity.STRICTLY_DECREASING, grid_points)
    flat = bool(np.all(np.abs(diffs) <= 1e-12))
    return MonotonicityReport(Monotonicity.NON_MONOTONIC, grid_points, flat=flat)


@dataclass(frozen=True)
class TranslateConcavity:
    """Whether density1 is a shifted copy of density0, and the shape of density0.

    ``shift`` is the offset mu with density0(y - mu) = density1(y) when
    ``shift_detected``; otherwise it is the raw mixture-mean difference.
    ``log_concave``/``log_convex`` report strict log-concavity/convexity of
    density0 on the grid (second differences of its log-pdf).
    """

    shift_detected: bool
    shift: float
    log_concave: bool
    log_convex: bool


def translate_log_concavity(spec: ChannelSpec, grid_points: int = DEFAULT_GRID_POINTS) -> TranslateConcavity:
    """Detect the shifted-density structure that guarantees a single threshold.

    A single-threshold quantizer is optimal when density1 is a translate of
    density0 and density0 is strictly log-concave or log-convex.  Translation
    is tested component-wise after shifting by the mixture-mean difference
    (tolerance 1e-9 per parameter); concavity via second differences of the
    log-pdf on a uniform grid.
    """
    d0, d1 = spec.density0, spec.density1
    shift = d1.mean - d0.mean
    detected = False
    if len(d0.components) == len(d1.components):
        key = lambda c: (c.mean, c.stddev, c.weight)
        pairs = zip(sorted(d0.components, key=key), sorted(d1.components, key=key))
        detected = all(
            abs(c0.mean + shift - c1.mean) <= 1e-9
            and abs(c0.stddev - c1.stddev) <= 1e-9
            and abs(c0.weight - c1.weight) <= 1e-9
            for c0, c1 in pairs
        )

    lp = log_pdf(d0, _search_grid(spec, grid_points).ys)
    second = lp[2:] - 2.0 * lp[1:-1] + lp[:-2]
    return TranslateConcavity(
        shift_detected=detected,
        shift=shift,
        log_concave=bool(np.all(second < -1e-12)),
        log_convex=bool(np.all(second > 1e-12)),
    )


@dataclass(frozen=True)
class LevelSet:
    """All solutions of u(y) = level inside the search window.

    ``roots`` are strictly increasing and each satisfies
    |u(root) - level| <= 1e-9.  Every root is a strict crossing of u through
    the level, so the segments between roots alternate between {u < level}
    and {u >= level}.  ``tangencies`` are grid cells where u sits on the
    level at both endpoints (the level grazes u), which are reported as
    diagnostics and never returned as roots: a grazing contact changes the
    partition on a measure-zero set only.
    """

    level: float
    roots: Thresholds
    tangencies: tuple[tuple[float, float], ...] = ()


def _bracketed_secant(fn, lo, hi, f_lo, f_hi, xtol: float, ftol: float, max_steps: int):
    """Narrow every bracket [lo, hi] onto a zero of ``fn``, all brackets at once.

    ``fn`` maps an array of points to an array of values; ``f_lo``/``f_hi``
    are its values at the bracket ends, of opposite signs.  Each step
    evaluates ``fn`` once per open bracket, at the secant point of its ends
    or at the midpoint when that point is not strictly inside, and keeps the
    sub-bracket with the sign change.  Every point stays at least xtol / 2
    inside its bracket, so an end that has reached the zero closes the
    bracket instead of creeping at it; when the same end moves twice in a
    row, the value kept at the other end is halved (Illinois), so both ends
    converge.  A point with |fn| <= ftol is its bracket's root; a bracket
    whose width drops to <= xtol returns its midpoint.

    Returns the roots and the number of steps taken; raises
    NotConvergedError when brackets are still open after ``max_steps``.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    roots = 0.5 * (lo + hi)
    last = np.zeros(lo.shape, dtype=np.int8)  # end moved last: -1 lower, +1 upper
    active = np.nonzero(hi - lo > xtol)[0]
    half = 0.5 * xtol
    steps = 0
    while active.size:
        if steps == max_steps:
            raise NotConvergedError(
                f"bracketed secant search used all {max_steps} steps with "
                f"{active.size} bracket(s) still wider than {xtol:g} "
                f"(widest {np.max(hi[active] - lo[active]):.3e})"
            )
        a, b, fa, fb = lo[active], hi[active], f_lo[active], f_hi[active]
        # an open bracket's ends keep strictly opposite signs: fb - fa != 0
        x = b - fb * (b - a) / (fb - fa)
        near = ~((a + half < x) & (x < b - half))
        if np.count_nonzero(near):
            an, bn, xn = a[near], b[near], x[near]
            inside = (an < xn) & (xn < bn)
            x[near] = np.where(inside, np.clip(xn, an + half, bn - half), 0.5 * (an + bn))
        fx = fn(x)
        steps += 1
        roots[active] = x

        move_lo = np.sign(fx) == np.sign(fa)
        at_lo, at_hi = active[move_lo], active[~move_lo]
        f_hi[at_lo[last[at_lo] == -1]] *= 0.5
        f_lo[at_hi[last[at_hi] == 1]] *= 0.5
        lo[at_lo], f_lo[at_lo], last[at_lo] = x[move_lo], fx[move_lo], -1
        hi[at_hi], f_hi[at_hi], last[at_hi] = x[~move_lo], fx[~move_lo], 1

        hit = np.abs(fx) <= ftol
        narrow = hi[active] - lo[active] <= xtol
        if np.count_nonzero(narrow):
            mid = active[narrow & ~hit]
            roots[mid] = 0.5 * (lo[mid] + hi[mid])
        active = active[~(hit | narrow)]
    return roots, steps


def find_level_set(spec: ChannelSpec, level: float, grid_points: int = DEFAULT_GRID_POINTS) -> LevelSet:
    """Find every root of u(y) = level by grid bracketing plus secant polishing.

    The sign of u - level is scanned on the channel's cached uniform grid of
    ``grid_points`` over the search window; every strict sign change is
    refined by :func:`_bracketed_secant` until |u(y) - level| <= 1e-12 or the
    bracket is at most 1e-12 wide.  Roots are returned sorted ascending.
    Raises NotConvergedError if a bracket is still open after 200 steps.
    """
    level = float(level)
    if not (1e-9 < level < 1.0 - 1e-9):
        raise InvalidSpecError(f"level must lie in (1e-9, 1 - 1e-9), got {level!r}")
    grid = _search_grid(spec, grid_points)
    ys = grid.ys
    delta = grid.u - level

    signs = np.sign(delta)
    crossing = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    grazing = np.nonzero(
        (np.abs(delta[:-1]) < TANGENCY_TOL) & (np.abs(delta[1:]) < TANGENCY_TOL)
    )[0]

    # a grid point that hits the level exactly is a root only if the posterior
    # actually crosses there; grazing contacts (flat stretches, tangencies)
    # are diagnostics, not thresholds
    zero_idx = np.nonzero(delta == 0.0)[0]
    nonzero_idx = np.nonzero(signs != 0)[0]
    exact = []
    for i in zero_idx:
        k = np.searchsorted(nonzero_idx, i)
        if 0 < k < nonzero_idx.size and signs[nonzero_idx[k - 1]] != signs[nonzero_idx[k]]:
            exact.append(ys[i])
    exact = np.asarray(exact)

    roots, _ = _bracketed_secant(
        lambda y: posterior(spec, y) - level,
        ys[crossing], ys[crossing + 1], delta[crossing], delta[crossing + 1],
        REFINE_TOL, REFINE_TOL, 200,
    )
    all_roots = np.sort(np.concatenate([roots, exact]))
    return LevelSet(
        level=level,
        roots=tuple(all_roots.tolist()),
        tangencies=tuple((float(ys[i]), float(ys[i + 1])) for i in grazing),
    )
