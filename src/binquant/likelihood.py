"""Likelihood ratio, posterior level variable, and level-set root finding.

The two central scalar fields of a binary-input channel with output density
``density0``/``density1`` and prior ``(p0, p1)``:

* the likelihood ratio ``r(y) = density0(y) / density1(y)``, and
* the posterior level ``u(y) = p1 density1(y) / (p0 density0(y) + p1 density1(y))``,

a strictly decreasing one-to-one function of ``r``.  Candidate quantizer
thresholds at level ``a`` are the solutions of ``u(y) = a``; the solver in
:mod:`binquant.solver` searches over ``a``.

Nothing on the search grid depends on the level, so each :class:`ChannelSpec`
computes the grid, ``log r``, ``u`` and its slope ``du/dy`` on it once per
grid size and keeps them, together with each cell's range of ``u`` (see
:func:`_search_grid`).  Every root is a crossing of ``u`` between {u < a}
and {u >= a}, so the segments between roots alternate between the two.
:func:`find_level_sets` takes a whole batch of levels and decides their
roots in one of two ways, picked by the channel:

* When each density is a single Gaussian, ``log r`` is the quadratic
  ``A y^2 + B y + C`` (coefficients kept on the spec), and the roots of each
  level are those of the quadratic, in closed form.  Where ``u`` touches the
  level without crossing it (a double root, or none), there is no root.
* Otherwise a cell holds a root of level ``a`` when exactly one of its two
  ends lies below ``a``.  A ``searchsorted`` of every cell's range against
  the sorted levels finds all the crossing cells at once, and all of their
  brackets are polished together by :func:`_newton_polish`: safeguarded
  Newton steps from the inverse cubic-Hermite point of each cell (built
  from ``u`` and ``du/dy`` at its ends), the first with that interpolant's
  slope.  Only the bracket and ``|u - a|`` decide when a root is done, so a
  wrong slope can cost steps but cannot move a root.  Every bracket narrows
  on its own, so a level's roots do not depend on the batch it came in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .density import DensityModel, Prior, Thresholds, _log_pdf_slope, log_pdf
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
    "posterior",
    "classify_monotonicity",
    "translate_log_concavity",
    "find_level_set",
    "find_level_sets",
]

DEFAULT_GRID_POINTS = 4096

#: Root polishing stops once |u(y) - level| or the bracket width drops to this.
REFINE_TOL = 1e-12

#: A search grid is flat when no step of log r on it is larger than this in magnitude.
_FLAT_LOG_R_STEP = 1e-12

#: Admissible levels lie in (LEVEL_MARGIN, 1 - LEVEL_MARGIN).
_LEVEL_MARGIN = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """A binary-input channel: prior plus the two conditional output densities.

    ``search_lo``/``search_hi`` bound the window scanned for thresholds; they
    must cover every mixture mean of both densities with at least a
    10-standard-deviation margin, beyond which the tails carry < 1e-20 mass.
    Use :func:`channel_spec` to fill the default window.

    Each instance keeps its own search grids (:func:`_search_grid`), so two
    equal specs built separately each compute theirs once, and the level
    sets of the last :func:`~binquant.channel.stationarity` batch per grid
    size, which :func:`find_level_set` returns.  It also keeps the
    coefficients of ``log r`` when that is a quadratic
    (:func:`_log_r_quadratic`).
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
        object.__setattr__(self, "_last_level_sets", {})
        object.__setattr__(self, "_log_r_quadratic", _log_r_quadratic(self.density0, self.density1))


def default_search_interval(density0: DensityModel, density1: DensityModel) -> tuple[float, float]:
    """Smallest admissible search window: means +- 10 x (largest stddev)."""
    comps = density0.components + density1.components
    means = [c.mean for c in comps]
    smax = max(c.stddev for c in comps)
    return min(means) - 10.0 * smax, max(means) + 10.0 * smax


def _log_r_quadratic(density0: DensityModel, density1: DensityModel) -> tuple[float, float, float] | None:
    """``(A, B, C)`` with log r(y) = A y^2 + B y + C when each density is one Gaussian, else None."""
    if len(density0.components) != 1 or len(density1.components) != 1:
        return None
    (c0,), (c1,) = density0.components, density1.components
    v0, v1 = c0.stddev * c0.stddev, c1.stddev * c1.stddev
    return (
        0.5 / v1 - 0.5 / v0,
        c0.mean / v0 - c1.mean / v1,
        0.5 * c1.mean * c1.mean / v1 - 0.5 * c0.mean * c0.mean / v0 + math.log(c1.stddev / c0.stddev),
    )


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


def _logistic(spec: ChannelSpec, log_r):
    """u = 1 / (1 + (p0/p1) exp(log_r)) as a stable logistic, which never overflows."""
    return expit(math.log(spec.prior.p1 / spec.prior.p0) - np.asarray(log_r))


def posterior(spec: ChannelSpec, y):
    """Posterior level u(y) = P(X=1 | Y=y) in (0, 1).

    Computed as a stable logistic of the log-likelihood ratio,
    ``u = 1 / (1 + (p0/p1) r(y))``, so it never overflows in the tails;
    it is strictly decreasing in ``r``.
    """
    u = _logistic(spec, log_likelihood_ratio(spec, y))
    return float(u) if np.ndim(y) == 0 else u


class _Grid(NamedTuple):
    """The level-independent search grid of one channel; arrays are read-only.

    Cell i is [ys[i], ys[i + 1]], and ``du`` is du/dy.  ``cells`` lists the
    cells in which u takes more than one value and reaches into the
    admissible levels (1e-9, 1 - 1e-9), the only ones a level can cross;
    ``lo_u``/``hi_u`` are the smaller and the larger of u at their ends, so
    such a cell holds a root of level a exactly when lo_u < a <= hi_u.  The
    cell arrays serve mixture channels; :func:`find_level_sets` solves
    single-Gaussian pairs in closed form.  ``flat`` is the one flatness
    verdict: every step of log r is at most _FLAT_LOG_R_STEP, so u is
    constant up to rounding, and no cell is kept (no level has a root).
    """

    ys: np.ndarray
    log_r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    cells: np.ndarray
    lo_u: np.ndarray
    hi_u: np.ndarray
    flat: bool


def _search_grid(spec: ChannelSpec, grid_points: int) -> _Grid:
    """The uniform grid over the search window, with log r, u, du/dy and the cell arrays on it.

    Computed on first use for each ``grid_points`` and kept on ``spec``.
    """
    if grid_points < 64:
        raise InvalidSpecError(f"grid_points must be >= 64, got {grid_points}")
    grid = spec._grids.get(grid_points)
    if grid is None:
        ys = np.linspace(spec.search_lo, spec.search_hi, grid_points)
        log_p0, slope0 = _log_pdf_slope(spec.density0, ys)
        log_p1, slope1 = _log_pdf_slope(spec.density1, ys)
        log_r = log_p0 - log_p1
        u = _logistic(spec, log_r)
        du = u * (u - 1.0) * (slope0 - slope1)
        lo_u, hi_u = np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])
        flat = bool(np.all(np.abs(np.diff(log_r)) <= _FLAT_LOG_R_STEP))
        # on a flat grid u differs from point to point by rounding alone, so no cell holds a root
        crossing = (lo_u < hi_u) & (hi_u > _LEVEL_MARGIN) & (lo_u < 1.0 - _LEVEL_MARGIN)
        cells = np.flatnonzero(crossing & (not flat))
        grid = _Grid(ys, log_r, u, du, cells, lo_u[cells], hi_u[cells], flat)
        for arr in grid[:-1]:
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
    the sign of successive finite differences.  Differences at most
    _FLAT_LOG_R_STEP in magnitude (the double-precision noise floor for
    log-pdf differences) count as violations of strictness; ``flat`` is the
    search grid's verdict (:func:`_search_grid`).
    """
    grid = _search_grid(spec, grid_points)
    diffs = np.diff(grid.log_r)
    if np.all(diffs > _FLAT_LOG_R_STEP):
        return MonotonicityReport(Monotonicity.STRICTLY_INCREASING, grid_points)
    if np.all(diffs < -_FLAT_LOG_R_STEP):
        return MonotonicityReport(Monotonicity.STRICTLY_DECREASING, grid_points)
    return MonotonicityReport(Monotonicity.NON_MONOTONIC, grid_points, flat=grid.flat)


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

    When density1 is a translate of density0 and density0 is strictly
    log-concave or log-convex, the likelihood ratio is strictly monotone,
    so a single-threshold quantizer is optimal.  Translation is tested
    component-wise after shifting by the mixture-mean difference (tolerance
    1e-9 per parameter); concavity via second differences of the log-pdf
    of density0 on the points of the channel's search grid.
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
    |u(root) - level| <= 1e-9.  Every root is a crossing of u between
    {u < level} and {u >= level}, so the segments between roots alternate
    between the two.  Where u meets the level without crossing it, there is
    no root.
    """

    level: float
    roots: Thresholds


def _newton_polish(fn, lo, hi, f_lo, f_hi, d_lo, d_hi, xtol: float, ftol: float, max_steps: int):
    """Narrow every bracket [lo, hi] onto a zero of ``fn``, all brackets at once.

    ``fn(x, idx)`` maps points to values, ``idx`` holding the index (into
    ``lo``) of each point's bracket; ``f_lo``/``f_hi``, of opposite signs,
    and ``d_lo``/``d_hi`` are its values and slopes at the bracket ends.
    An end where ``fn`` is exactly 0 is the root, with no step.  The first
    point is the inverse cubic-Hermite point of the ends (else the linear
    one); each later one a Newton step, with the interpolant's slope for
    the first step and the secant slope of the last two points after it,
    or the midpoint when the step leaves the bracket or is not at most half
    the step before the last (as in ``rtsafe``).  Each step evaluates
    ``fn`` once per open bracket, at least xtol / 2 inside it, and keeps
    the sub-bracket with the sign change.  A point with |fn| <= ftol is a
    root; a bracket at most xtol wide gives its midpoint.  So a wrong slope
    costs steps, never a root, and every bracket narrows on its own.

    Returns the roots and the number of steps taken; raises
    NotConvergedError when brackets are still open after ``max_steps``.
    """
    lo, hi, f_lo, f_hi, d_lo, d_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi, d_lo, d_hi))
    roots = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, 0.5 * (lo + hi)))
    # the open brackets' state, compacted as they close
    idx = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0) & (hi - lo > xtol))
    a, b, fp, d0, d1 = lo[idx], hi[idx], f_lo[idx], d_lo[idx], d_hi[idx]
    xp, h, df = a, b - a, f_hi[idx] - fp
    rising, half = df > 0.0, 0.5 * xtol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # inverse cubic Hermite interpolation of y(fn) at fn = 0, with dy/dfn = 1 / slope at the ends
        secant, s = df / h, -fp / df
        t = s * s * (3.0 - 2.0 * s) + s * (1.0 - s) * ((1.0 - s) * secant / d0 - s * secant / d1)
        x = np.clip(a + h * np.where((0.0 < t) & (t < 1.0), t, s), a + half, b - half)
        # the interpolant's slope at x; (xp, fp) is the point evaluated before x, first the lower end
        t = (x - a) / h
        slope = d0 + t * (6.0 * secant - 4.0 * d0 - 2.0 * d1 + t * (3.0 * (d0 + d1) - 6.0 * secant))
        steps, last, before = 0, h, h
        while idx.size:
            if steps == max_steps:
                raise NotConvergedError(
                    f"bracketed Newton polishing used all {max_steps} steps with "
                    f"{idx.size} bracket(s) still wider than {xtol:g} (widest {np.max(b - a):.3e})"
                )
            fx, steps = fn(x, idx), steps + 1
            roots[idx] = x
            move_lo = (fx > 0.0) != rising
            a, b = np.where(move_lo, x, a), np.where(move_lo, b, x)
            hit = np.abs(fx) <= ftol
            done = hit | (b - a <= xtol)
            if np.count_nonzero(done):
                mid = done & ~hit
                roots[idx[mid]] = 0.5 * (a[mid] + b[mid])
                idx, x, fx, a, b, xp, fp, slope, rising, last, before = (
                    v[~done] for v in (idx, x, fx, a, b, xp, fp, slope, rising, last, before)
                )
            if steps > 1:
                slope = (fx - fp) / (x - xp)
            newton = x - fx / slope
            inside = (a < newton) & (newton < b)
            newton = np.clip(newton, a + half, b - half)
            newton = np.where(inside & (np.abs(newton - x) <= 0.5 * before), newton, 0.5 * (a + b))
            xp, fp, x, before, last = x, fx, newton, last, np.abs(newton - x)
    return roots, steps


def _pairs(first, stop):
    """Every pair (i, j) with first[i] <= j < stop[i], ordered by i, then by j."""
    owner = np.flatnonzero(stop > first)
    if not owner.size:
        return owner, owner
    count = stop[owner] - first[owner]
    offsets = np.cumsum(count) - count
    return np.repeat(owner, count), np.repeat(first[owner] - offsets, count) + np.arange(count.sum())


def _quadratic_roots(spec: ChannelSpec, levels: np.ndarray):
    """Level indices and roots of u(y) = a for the sorted ``levels`` when log r is a quadratic.

    With log r(y) = A y^2 + B y + C, u(y) = a solves A y^2 + B y + c = 0 for
    c = C - log(p1/p0) - log((1 - a)/a).  Its roots are q/A and c/q with
    q = -(B + sign(B) sqrt(B^2 - 4 A c)) / 2, which never subtracts nearly
    equal numbers, or -c/B when A = 0.  Where B^2 - 4 A c <= 0, or the two
    roots are equal, u touches the level without crossing it: no root.  Only
    roots inside the search window are kept, in (level, root) order.
    """
    quad_a, quad_b, quad_c = spec._log_r_quadratic
    c = (quad_c - math.log(spec.prior.p1 / spec.prior.p0)) - np.log((1.0 - levels) / levels)
    # -c/B with B = 0 (identical densities), the NaN of a negative B^2 - 4Ac
    # and a q/A past the float range all fall outside the window
    with np.errstate(divide="ignore", invalid="ignore"):
        if quad_a == 0.0:
            roots = (-c / quad_b)[:, None]
        else:
            disc = quad_b * quad_b - 4.0 * quad_a * c
            q = -0.5 * (quad_b + np.copysign(np.sqrt(disc), quad_b))
            roots = np.sort(np.stack((q / quad_a, c / q), axis=1), axis=1)
            roots[~(disc > 0.0) | (roots[:, 0] == roots[:, 1])] = np.nan
    keep = (roots >= spec.search_lo) & (roots <= spec.search_hi)
    return np.nonzero(keep)[0], roots[keep]


def _crossing_roots(spec: ChannelSpec, grid: _Grid, levels: np.ndarray):
    """Level indices and roots of u(y) = a for the sorted ``levels``, by the grid crossing rule.

    Cell i of the cached grid holds a root of level a when exactly one of
    its ends lies below a, ``lo_u[i] < a <= hi_u[i]``.  A ``searchsorted``
    of the cached ranges of u of the cells that reach into the admissible
    levels against the levels finds them all, with no levels x grid array.
    The brackets of all levels are refined together by
    :func:`_newton_polish` until |u(y) - level| <= 1e-12 or the bracket
    is at most 1e-12 wide, each exactly as it would be refined alone; a
    bracket end where u equals a exactly is its root.  A grid point where u
    touches a from below closes the brackets on both of its sides there;
    that pair of equal roots bounds an empty segment and is dropped.
    Returned in (level, root) order.
    """
    ys, u = grid.ys, grid.u
    # each cell holds the run of sorted levels in (lo_u, hi_u]
    k, lvl = _pairs(np.searchsorted(levels, grid.lo_u, "right"), np.searchsorted(levels, grid.hi_u, "right"))
    cell = grid.cells[k]
    target = levels[lvl]
    roots, _ = _newton_polish(
        lambda y, j: posterior(spec, y) - target[j],
        ys[cell], ys[cell + 1], u[cell] - target, u[cell + 1] - target, grid.du[cell], grid.du[cell + 1],
        REFINE_TOL, REFINE_TOL, 200,
    )
    # drop each pair of equal roots: it bounds an empty segment
    order = np.lexsort((roots, lvl))
    lvl, roots = lvl[order], roots[order]
    twins = np.flatnonzero((lvl[1:] == lvl[:-1]) & (roots[1:] == roots[:-1]))
    return np.delete(lvl, np.r_[twins, twins + 1]), np.delete(roots, np.r_[twins, twins + 1])


def find_level_sets(
    spec: ChannelSpec, levels, grid_points: int = DEFAULT_GRID_POINTS
) -> tuple[LevelSet, ...]:
    """Every root of u(y) = a for each level a of ``levels``, in input order.

    Every root is a crossing of u between {u < a} and {u >= a}, so the
    segments between roots alternate between the two; where u meets a
    without crossing it there is no root.  Roots are sorted ascending and
    lie in the search window.  The channel picks the path: one Gaussian in
    each density gives the roots of the quadratic log r in closed form,
    with no polishing (:func:`_quadratic_roots`); any other channel
    brackets them on its cached uniform grid of ``grid_points`` over the
    search window and polishes the roots of all levels together
    (:func:`_crossing_roots`).  The grid is built, and ``grid_points``
    checked, on either path: every caller of the level functionals reads it.

    Raises InvalidSpecError if any level lies outside (1e-9, 1 - 1e-9), and
    NotConvergedError if a bracket is still open after 200 steps.
    """
    levels = np.asarray(levels, dtype=float).ravel()
    if not levels.size:
        return ()
    # NaN fails both comparisons, and it propagates through min and max
    if not (levels.min() > _LEVEL_MARGIN and levels.max() < 1.0 - _LEVEL_MARGIN):
        bad = levels[~((levels > _LEVEL_MARGIN) & (levels < 1.0 - _LEVEL_MARGIN))]
        raise InvalidSpecError(f"level must lie in (1e-9, 1 - 1e-9), got {float(bad[0])!r}")
    grid = _search_grid(spec, grid_points)
    uniq, inverse = np.unique(levels, return_inverse=True)
    if spec._log_r_quadratic is None:
        lvl, roots = _crossing_roots(spec, grid, uniq)
    else:
        lvl, roots = _quadratic_roots(spec, uniq)

    ends = np.cumsum(np.bincount(lvl, minlength=uniq.size)).tolist()
    roots = roots.tolist()
    sets = [LevelSet(level, tuple(roots[i:j])) for level, i, j in zip(uniq.tolist(), [0, *ends], ends)]
    return tuple(sets[j] for j in inverse.tolist())


def find_level_set(spec: ChannelSpec, level: float, grid_points: int = DEFAULT_GRID_POINTS) -> LevelSet:
    """The level set u(y) = ``level``: :func:`find_level_sets` on a batch of one.

    When the last :func:`~binquant.channel.stationarity` batch of this grid
    size holds the level, its level set is returned, which equals the
    batch of one.
    """
    for level_set in spec._last_level_sets.get(grid_points, ()):
        if level_set.level == level:
            return level_set
    return find_level_sets(spec, (level,), grid_points)[0]
