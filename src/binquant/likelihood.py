"""Likelihood ratio, posterior level variable, and level-set root finding.

The two central scalar fields of a binary-input channel with output density
``density0``/``density1`` and prior ``(p0, p1)``:

* the likelihood ratio ``r(y) = density0(y) / density1(y)``, and
* the posterior level ``u(y) = p1 density1(y) / (p0 density0(y) + p1 density1(y))``,

a strictly decreasing one-to-one function of ``r``.  Candidate quantizer
thresholds at level ``a`` are the solutions of ``u(y) = a``; the solver in
:mod:`binquant.solver` searches over ``a``.

Only this module tells the two kinds of channel apart, for the roots of
a batch of levels (:func:`_level_roots`), ``u`` at ``search_lo`` and the
range of ``u`` (:func:`_u_extent`), and the monotonicity verdict:

* When each density is a single Gaussian, ``log r`` is the quadratic
  ``A w^2 + B w + C`` in ``w = y - m``, centered on the mean ``m`` of the
  narrower component (coefficients kept on the spec), and nothing needs a
  grid: the roots of each level are those of the quadratic, in closed form
  (where ``u`` touches the level without crossing it, a double root or
  none, there is no root), ``u`` at the window's ends and at the vertex of
  ``log r`` is its range, and the steps of ``log r`` between grid points,
  linear in the cell midpoint, are decided by the first and last cell.
* A mixture channel reads a search grid, which depends on no level, so
  each :class:`ChannelSpec` computes it, ``log r``, ``u`` and its slope
  ``du/dy`` on it once per grid size and keeps them (see
  :func:`_search_grid`).  A cell holds a root of level ``a`` when exactly
  one of its two ends lies below ``a``, so one ``searchsorted`` of ``u``
  against the sorted levels finds all the crossing cells of a batch at
  once (:func:`_crossing_roots`).  To ranking accuracy a root
  is the inverse cubic-Hermite point of its cell (built from ``u`` and
  ``du/dy`` at its ends); polished, all the brackets narrow together by
  :func:`_newton_polish`: safeguarded Newton steps from that point, the
  first with that interpolant's slope.  Only the bracket and ``|u - a|``
  decide when a root is done, so a wrong slope can cost steps but cannot
  move a root.  Every bracket narrows on its own, so a level's roots do
  not depend on the batch it came in.

Every root is a crossing of ``u`` between {u < a} and {u >= a}, so the
segments between roots alternate between the two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
]

DEFAULT_GRID_POINTS = 4096

#: Search grids hold at least 64 and at most this many points (8 MiB per grid array).
MAX_GRID_POINTS = 2**20

#: A mixture grid adds _NARROW_POINTS points over mean +- _NARROW_SIGMAS stddevs
#: of every component narrower than _NARROW_SIGMAS uniform grid spacings.
_NARROW_SIGMAS = 8.0
_NARROW_POINTS = 129

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

    Each instance keeps its own search grids (:func:`_search_grid`; mixture
    channels only: the points, ``log r``, ``u`` and ``du/dy``), so two equal
    specs built separately each compute theirs once, and its last batch of
    level functionals per grid size (levels, roots and masses, kept by
    :func:`binquant.channel._level_batch`, the one place a batch is built),
    whose roots :func:`find_level_set` reads.  When ``log r`` is a quadratic it
    also keeps, from the start, its coefficients (:func:`_log_r_quadratic`)
    and ``u`` at ``search_lo`` and the range of ``u`` (:func:`_u_extent`).
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
        object.__setattr__(self, "_last_batch", {})
        quad = _log_r_quadratic(self.density0, self.density1)
        object.__setattr__(self, "_log_r_quadratic", quad)
        if quad is not None:
            quad_a, quad_b, quad_c, center = quad
            ws = [self.search_lo - center, self.search_hi - center]
            if quad_a != 0.0 and ws[0] < -quad_b / (2.0 * quad_a) < ws[1]:
                ws.append(-quad_b / (2.0 * quad_a))
            w = np.array(ws)
            u = _logistic(self, (quad_a * w + quad_b) * w + quad_c)
            object.__setattr__(self, "_quadratic_u_extent", (float(u[0]), float(u.min()), float(u.max())))


def default_search_interval(density0: DensityModel, density1: DensityModel) -> tuple[float, float]:
    """Smallest admissible search window: means +- 10 x (largest stddev)."""
    comps = density0.components + density1.components
    means = [c.mean for c in comps]
    smax = max(c.stddev for c in comps)
    return min(means) - 10.0 * smax, max(means) + 10.0 * smax


def _log_r_quadratic(density0: DensityModel, density1: DensityModel) -> tuple[float, float, float, float] | None:
    """``(A, B, C, m)`` with log r(y) = A w^2 + B w + C, w = y - m, when each density is one Gaussian, else None.

    m is the mean of the narrower component (density0's on a tie), so that
    component's offset d = mu - m is 0 and C carries no mu^2 / sigma^2 term
    of it.  Expanded in y itself, a mean far from 0 against a narrow
    stddev puts terms such as 5e16 into C, whose rounding (8 there) swamps
    the level's log((1 - a) / a) and stalls the roots at every level.
    """
    if len(density0.components) != 1 or len(density1.components) != 1:
        return None
    (c0,), (c1,) = density0.components, density1.components
    center = c0.mean if c0.stddev <= c1.stddev else c1.mean
    d0, d1 = c0.mean - center, c1.mean - center
    v0, v1 = c0.stddev * c0.stddev, c1.stddev * c1.stddev
    return (
        0.5 / v1 - 0.5 / v0,
        d0 / v0 - d1 / v1,
        0.5 * d1 * d1 / v1 - 0.5 * d0 * d0 / v0 + math.log(c1.stddev / c0.stddev),
        center,
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
    """u = 1 / (1 + (p0/p1) exp(log_r)), the logistic of x = log(p1/p0) - log_r, which never overflows.

    Two branches of e = exp(-|x|) <= 1: 1 / (1 + e) where x >= 0 and
    e / (1 + e) where x < 0, so +-inf give exactly 1 and 0, and a tiny u
    keeps its relative precision down to the underflow of e.
    """
    x = math.log(spec.prior.p1 / spec.prior.p0) - np.asarray(log_r)
    e = np.exp(-np.abs(x))
    return np.where(x < 0.0, e, 1.0) / (1.0 + e)


def _check_grid_points(grid_points) -> None:
    """Raise InvalidSpecError unless ``grid_points`` lies in [64, MAX_GRID_POINTS].

    The message gives the value to 6 significant digits, so a huge one
    stays short.
    """
    if not 64 <= grid_points <= MAX_GRID_POINTS:
        raise InvalidSpecError(f"grid_points must lie in [64, {MAX_GRID_POINTS}], got {grid_points:.6g}")


def posterior(spec: ChannelSpec, y):
    """Posterior level u(y) = P(X=1 | Y=y) in (0, 1).

    Computed as a stable logistic of the log-likelihood ratio,
    ``u = 1 / (1 + (p0/p1) r(y))``, so it never overflows in the tails;
    it is strictly decreasing in ``r``.
    """
    u = _logistic(spec, log_likelihood_ratio(spec, y))
    return float(u) if np.ndim(y) == 0 else u


class _Grid(NamedTuple):
    """The level-independent search grid of a mixture channel; arrays are read-only.

    It brackets the level-set roots of the levels that
    :func:`~binquant.solver.solve` scans and searches, and classifies the
    monotonicity of r, for mixture channels only: single-Gaussian pairs are
    scanned and classified in closed form, and never build one.  Cell i is
    [ys[i], ys[i + 1]], and ``du`` is du/dy.  A cell holds a root of level a
    exactly when a lies above the smaller and at most the larger of u at its
    two ends (:func:`_crossing_roots`).  ``u_extent`` is :func:`_u_extent`
    on the grid.  ``flat`` is the one flatness verdict of the grid: every
    step of log r is at most _FLAT_LOG_R_STEP, so u is constant up to
    rounding, and no level has a root.
    """

    ys: np.ndarray
    log_r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    u_extent: tuple[float, float, float]
    flat: bool


def _search_grid(spec: ChannelSpec, grid_points: int) -> _Grid:
    """The search grid of a mixture channel, with log r, u and du/dy on it.

    ``grid_points`` uniform points over the search window, and, so that a
    component narrower than the uniform spacing cannot hide its roots
    between two points, 129 more over mean +- 8 stddevs of every component
    whose stddev is below 8 uniform spacings (1/8 stddev apart).  Computed
    on first use for each ``grid_points`` and kept on ``spec``.  The
    library builds it for mixture channels only.
    """
    _check_grid_points(grid_points)
    grid = spec._grids.get(grid_points)
    if grid is None:
        ys = np.linspace(spec.search_lo, spec.search_hi, grid_points)
        reach = _NARROW_SIGMAS * (ys[1] - ys[0])
        narrow = [
            np.linspace(c.mean - _NARROW_SIGMAS * c.stddev, c.mean + _NARROW_SIGMAS * c.stddev, _NARROW_POINTS)
            for c in spec.density0.components + spec.density1.components
            if c.stddev < reach
        ]
        if narrow:
            ys = np.union1d(ys, np.concatenate(narrow))
        log_p0, slope0 = _log_pdf_slope(spec.density0, ys)
        log_p1, slope1 = _log_pdf_slope(spec.density1, ys)
        log_r = log_p0 - log_p1
        u = _logistic(spec, log_r)
        du = u * (u - 1.0) * (slope0 - slope1)
        flat = bool(np.all(np.abs(np.diff(log_r)) <= _FLAT_LOG_R_STEP))
        grid = _Grid(ys, log_r, u, du, (float(u[0]), float(u.min()), float(u.max())), flat)
        for arr in grid[:-2]:
            arr.flags.writeable = False
        spec._grids[grid_points] = grid
    return grid


def _u_extent(spec: ChannelSpec, grid_points: int) -> tuple[float, float, float]:
    """u at ``search_lo``, which labels the first segment, and the least and the largest u in the window.

    A single-Gaussian pair takes them in closed form, from u at the two
    ends of the window and, when it lies inside, at the vertex
    y = m - B / 2A of log r = A (y - m)^2 + B (y - m) + C; a mixture reads
    them off its search grid.
    The closed form is computed when the spec is built, the grid's on its
    first use; either way once per channel, and kept.
    """
    if spec._log_r_quadratic is None:
        return _search_grid(spec, grid_points).u_extent
    _check_grid_points(grid_points)
    return spec._quadratic_u_extent


class Monotonicity(enum.Enum):
    STRICTLY_INCREASING = "StrictlyIncreasing"
    STRICTLY_DECREASING = "StrictlyDecreasing"
    NON_MONOTONIC = "NonMonotonic"


@dataclass(frozen=True)
class MonotonicityReport:
    """Numerical monotonicity verdict for the likelihood ratio.

    This is a finite-grid verdict, not a proof, so the size of the grid it
    was established on travels with it: ``grid_points`` uniform points over
    the search window, to which a mixture's grid adds 129 points over each
    component narrower than 8 uniform spacings (:func:`_search_grid`); a
    single-Gaussian pair judges the uniform cells alone.  ``flat`` marks the
    degenerate case where the log-ratio is constant to within the
    strictness threshold everywhere (identical densities).
    """

    verdict: Monotonicity
    grid_points: int
    flat: bool = False


def classify_monotonicity(spec: ChannelSpec, grid_points: int = DEFAULT_GRID_POINTS) -> MonotonicityReport:
    """Classify the likelihood ratio as strictly monotone or not.

    Checks the sign of the steps of log r(y) between successive points of
    the search grid.  Steps at most _FLAT_LOG_R_STEP in magnitude (the
    double-precision noise floor for log-pdf differences) count as
    violations of strictness; ``flat`` says that every step is one, the
    search grid's verdict (:func:`_search_grid`).  A single-Gaussian pair
    builds no grid: on a cell of width h and midpoint y of the uniform
    ``grid_points`` grid its step is exactly (2 A (y - m) + B) h, linear in
    y, so the first and the last cell bound every other.
    """
    if spec._log_r_quadratic is None:
        steps = np.diff(_search_grid(spec, grid_points).log_r)
    else:
        _check_grid_points(grid_points)
        quad_a, quad_b, _, center = spec._log_r_quadratic
        h = (spec.search_hi - spec.search_lo) / (grid_points - 1)
        mids = np.array([spec.search_lo + 0.5 * h, spec.search_hi - 0.5 * h])
        steps = (2.0 * quad_a * (mids - center) + quad_b) * h
    if np.all(steps > _FLAT_LOG_R_STEP):
        return MonotonicityReport(Monotonicity.STRICTLY_INCREASING, grid_points)
    if np.all(steps < -_FLAT_LOG_R_STEP):
        return MonotonicityReport(Monotonicity.STRICTLY_DECREASING, grid_points)
    flat = bool(np.all(np.abs(steps) <= _FLAT_LOG_R_STEP))
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

    When density1 is a translate of density0 and density0 is strictly
    log-concave or log-convex, the likelihood ratio is strictly monotone,
    so a single-threshold quantizer is optimal.  Translation is tested
    component-wise after shifting by the mixture-mean difference (tolerance
    1e-9 per parameter); concavity via second differences of the log-pdf
    of density0 on ``grid_points`` uniform points over the search window.
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

    _check_grid_points(grid_points)
    lp = log_pdf(d0, np.linspace(spec.search_lo, spec.search_hi, grid_points))
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

    ``roots`` are strictly increasing.  Every root is a crossing of u
    between {u < level} and {u >= level}, so the segments between roots
    alternate between the two.  Where u meets the level without crossing
    it, there is no root.

    Each path bounds a root's error in y, not |u(root) - level|: next to a
    narrow component a root 4e-12 from the exact one can have
    |u(root) - level| > 1e-8.

    * Closed form (one Gaussian per density): within
      2 eps (M / |d log r/dy| + |y|) of the exact root y, with eps the
      double epsilon and M = sum_i (|y - m| + |mu_i - m|)^2 / (2 sigma_i^2)
      + |log(sigma1/sigma0)| + |log(p1/p0)| + |log((1 - a)/a)| the size of
      the terms that log r and the level are rounded from, m the mean of
      the narrower component (:func:`_log_r_quadratic`).
    * Grid path (mixtures): polishing stops in a bracket at most 1e-12
      wide across which the computed u - level changes sign, or where the
      computed |u - level| <= 1e-12: within max(1e-12, 1e-12 / |du/dy|)
      of the exact root, up to the rounding of u.
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
    costs steps, never a root, and every bracket narrows on its own.  With
    ``max_steps`` = 0, ``fn`` is never called and each open bracket gives
    its first point.

    Returns the roots and the number of steps taken; raises
    NotConvergedError when brackets are still open after ``max_steps``.
    """
    lo, hi, f_lo, f_hi, d_lo, d_hi = (np.asarray(v, dtype=float) for v in (lo, hi, f_lo, f_hi, d_lo, d_hi))
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
        x = np.minimum(np.maximum(a + h * np.where((0.0 < t) & (t < 1.0), t, s), a + half), b - half)
        if not max_steps:
            roots[idx] = x
            return roots, 0
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
                if not idx.size:
                    break
            if steps > 1:
                slope = (fx - fp) / (x - xp)
            newton = x - fx / slope
            inside = (a < newton) & (newton < b)
            newton = np.minimum(np.maximum(newton, a + half), b - half)
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

    With log r(y) = A w^2 + B w + C, w = y - m, u(y) = a solves
    A w^2 + B w + c = 0 for c = C - log(p1/p0) - log((1 - a)/a).  Its roots
    are q/A and c/q with q = -(B + sign(B) sqrt(B^2 - 4 A c)) / 2, which
    never subtracts nearly equal numbers, or -c/B when A = 0; each root y is
    m + w.  Where B^2 - 4 A c <= 0, or the two roots are equal, u touches
    the level without crossing it: no root.  Only roots inside the search
    window are kept, in (level, root) order.
    """
    quad_a, quad_b, quad_c, center = spec._log_r_quadratic
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
    roots += center
    keep = (roots >= spec.search_lo) & (roots <= spec.search_hi)
    return np.nonzero(keep)[0], roots[keep]


def _crossing_roots(spec: ChannelSpec, grid: _Grid, levels: np.ndarray, max_steps: int):
    """Level indices and roots of u(y) = a for the sorted admissible ``levels``, by the grid crossing rule.

    Cell i of the cached grid holds a root of level a when exactly one of
    its ends lies below a: a lies above the smaller and at most the larger
    of u at its ends.  One ``searchsorted`` of u at every grid point
    against the levels counts the levels at most u there, so cell i holds
    the sorted levels from the smaller to the larger count at its two ends,
    with no levels x grid array.  A flat grid, where u differs from point
    to point by rounding alone, gives no root.  :func:`_newton_polish`
    refines the brackets of all levels together, each exactly as alone, in
    at most ``max_steps`` steps (none: the inverse cubic-Hermite point of
    each cell), until |u(y) - level| <= 1e-12 or the bracket is at most
    1e-12 wide.  A bracket end where u equals a exactly is its root.  A
    grid point where u touches a from below closes the brackets on both of
    its sides; that pair of equal roots bounds an empty segment and is
    dropped.  In (level, root) order, by a stable sort on the level: the
    roots come in cell order, ascending.
    """
    if grid.flat:
        return np.empty(0, dtype=np.intp), np.empty(0)
    ys, u = grid.ys, grid.u
    count = np.searchsorted(levels, u, "right")
    cell, lvl = _pairs(np.minimum(count[:-1], count[1:]), np.maximum(count[:-1], count[1:]))
    target = levels[lvl]
    roots, _ = _newton_polish(
        lambda y, j: posterior(spec, y) - target[j],
        ys[cell], ys[cell + 1], u[cell] - target, u[cell + 1] - target, grid.du[cell], grid.du[cell + 1],
        REFINE_TOL, REFINE_TOL, max_steps,
    )
    # drop each pair of equal roots: it bounds an empty segment
    order = np.argsort(lvl, kind="stable")
    lvl, roots = lvl[order], roots[order]
    twins = np.flatnonzero((lvl[1:] == lvl[:-1]) & (roots[1:] == roots[:-1]))
    if twins.size:
        drop = np.r_[twins, twins + 1]
        lvl, roots = np.delete(lvl, drop), np.delete(roots, drop)
    return lvl, roots


def _level_roots(spec: ChannelSpec, levels: np.ndarray, grid_points: int, polish: bool = True):
    """Level indices and roots of u(y) = a for the sorted ``levels``, in (level, root) order.

    One Gaussian in each density gives the roots of the quadratic log r in
    closed form (:func:`_quadratic_roots`); a mixture brackets them on its
    search grid of ``grid_points`` (:func:`_crossing_roots`) and polishes
    them, unless ``polish`` is False: then they are to ranking accuracy.
    """
    if spec._log_r_quadratic is None:
        return _crossing_roots(spec, _search_grid(spec, grid_points), levels, 200 if polish else 0)
    _check_grid_points(grid_points)
    return _quadratic_roots(spec, levels)


def _batch_roots(spec: ChannelSpec, levels, grid_points: int):
    """The sorted unique ``levels`` (a list), each level's index among them, and their roots' bounds and roots.

    One :func:`_level_roots` call gives the roots; level i's are
    roots[bounds[i]:bounds[i + 1]].  Raises InvalidSpecError if any level
    lies outside (1e-9, 1 - 1e-9).
    """
    levels = np.asarray(levels, dtype=float).ravel()
    # NaN fails both comparisons, and it propagates through min and max
    if levels.size and not (levels.min() > _LEVEL_MARGIN and levels.max() < 1.0 - _LEVEL_MARGIN):
        bad = levels[~((levels > _LEVEL_MARGIN) & (levels < 1.0 - _LEVEL_MARGIN))]
        raise InvalidSpecError(f"level must lie in (1e-9, 1 - 1e-9), got {float(bad[0])!r}")
    uniq, inverse = np.unique(levels, return_inverse=True)
    lvl, roots = _level_roots(spec, uniq, grid_points)
    return uniq.tolist(), inverse, [0, *np.cumsum(np.bincount(lvl, minlength=uniq.size)).tolist()], roots


def find_level_set(spec: ChannelSpec, level, grid_points: int = DEFAULT_GRID_POINTS):
    """Every root of u(y) = ``level`` in the search window: one :class:`LevelSet`, or a tuple for a batch.

    Every root is a crossing of u between {u < a} and {u >= a}, so the
    segments between roots alternate between the two; where u meets a
    without crossing it there is no root.  Roots are sorted ascending and
    lie in the search window, polished (:func:`_level_roots`): in closed
    form for a single-Gaussian pair, on the search grid of ``grid_points``
    for a mixture.  ``grid_points`` is checked on either path.

    A scalar level gives one :class:`LevelSet`.  When the last batch of
    level functionals of this grid size holds it (a scalar
    :func:`~binquant.channel.level_functionals` keeps a batch of one before
    it reads the level set here), its roots are read from the spec
    (:class:`ChannelSpec`), which equal a batch of one.  Any
    array-like of levels gives a tuple of level sets, in input order, from
    one :func:`_batch_roots` call, which the spec does not keep.

    Raises InvalidSpecError if any level lies outside (1e-9, 1 - 1e-9), and
    NotConvergedError if a bracket is still open after 200 steps.
    """
    kept = spec._last_batch.get(grid_points)
    if not np.ndim(level) and kept and level in kept.levels:
        i = kept.levels.index(level)
        return LevelSet(kept.levels[i], tuple(kept.roots[kept.bounds[i] : kept.bounds[i + 1]].tolist()))
    uniq, inverse, bounds, roots = _batch_roots(spec, level, grid_points)
    roots = roots.tolist()
    sets = [LevelSet(a, tuple(roots[i:j])) for a, i, j in zip(uniq, bounds, bounds[1:])]
    return tuple(sets[j] for j in inverse.tolist()) if np.ndim(level) else sets[0]
