"""Bracketed secant solver for the optimal binary quantizer.

The mutual information of the induced quantizer, viewed as a function of the
posterior level ``a``, has a single stationary point; the stationarity
function F of :mod:`binquant.channel` crosses zero exactly once there, from
positive to negative.  That single crossing is what makes any bracketed
method valid.  The solver brackets the zero on a coarse level grid (trimming
inward past levels whose channel is degenerate), narrows the bracket to
tolerance with the bracketed secant routine that also polishes the level-set
roots (:func:`~binquant.likelihood._bracketed_secant`), and takes *all*
level-set roots at the solution as the threshold vector: dropping any subset
of them can never improve the mutual information.

At the solution every threshold carries the same likelihood ratio

    r* = (p1/p0) (1 - a*) / a*,

and the design records the worst relative deviation from it as its
``stationarity_residual``, the post-solve equal-ratio certificate.  The
thresholds, their labels and the channel matrix all come from one
:func:`~binquant.channel.level_functionals` call at a*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, Mapping, level_functionals, mutual_information, stationarity
from .density import Thresholds
from .errors import DegenerateChannelError, InvalidSpecError, NoSignChangeError
from .likelihood import (
    ChannelSpec,
    Monotonicity,
    _bracketed_secant,
    classify_monotonicity,
    likelihood_ratio,
    translate_log_concavity,
)

__all__ = [
    "SolverConfig",
    "QuantizerDesign",
    "solve",
    "predict_single_threshold",
]

#: Number of points in the coarse bracketing scan over the level range.
SCAN_POINTS = 64


@dataclass(frozen=True)
class SolverConfig:
    """Level-search parameters; the defaults solve all shipped channels < 1 s.

    ``[a_lo, a_hi]`` is the scanned level range, ``tol_a`` the width the
    bracketed secant search narrows the sign-change bracket to, ``max_iter``
    its budget of F evaluations after the scan, and ``grid_points`` the size
    of the root-bracketing grid.
    """

    a_lo: float = 1e-6
    a_hi: float = 1.0 - 1e-6
    tol_a: float = 1e-10
    max_iter: int = 200
    grid_points: int = 4096

    def __post_init__(self):
        if not (0.0 < self.a_lo < self.a_hi < 1.0):
            raise InvalidSpecError(
                f"need 0 < a_lo < a_hi < 1, got a_lo={self.a_lo!r}, a_hi={self.a_hi!r}"
            )
        if not self.tol_a > 0.0:
            raise InvalidSpecError(f"tol_a must be > 0, got {self.tol_a!r}")
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
    notes: tuple[str, ...] = field(default=())


def _scan_values(spec: ChannelSpec, levels: np.ndarray, grid_points: int):
    """Evaluate F on the scan grid; NaN marks degenerate levels."""
    values = np.full(levels.shape, np.nan)
    last_degenerate: DegenerateChannelError | None = None
    for i, a in enumerate(levels):
        try:
            values[i] = stationarity(spec, float(a), grid_points)
        except DegenerateChannelError as err:
            last_degenerate = err
    return values, last_degenerate


def solve(spec: ChannelSpec, config: SolverConfig | None = None) -> QuantizerDesign:
    """Find the optimal binary quantizer for ``spec`` by a bracketed search on F.

    Procedure: (1) scan F on a 64-point level grid over [a_lo, a_hi],
    skipping degenerate levels at the ends; (2) narrow the sign-change cell
    down to ``tol_a`` with the shared bracketed secant routine (Illinois
    down-weighting, bisection when a secant step would leave the bracket,
    every step at least tol_a / 2 inside it; an exact zero of F, in the scan
    or at a step, ends the search); ``iterations`` counts these steps; (3) take
    the level functionals at the midpoint a* of the final bracket:
    every level-set root is a threshold, segments with posterior below a*
    map to Z=0, and their masses are the channel matrix; (4) compute the
    mutual information (bits), r*, and the equal-ratio residual from them.

    Raises NoSignChangeError when F keeps one sign over the admissible range
    (e.g. identical conditional densities carry no information),
    NotConvergedError past ``max_iter``, and DegenerateChannelError when no
    level in the range is evaluable for a non-flat posterior.
    """
    cfg = config or SolverConfig()
    notes: list[str] = []

    scan_levels = np.linspace(cfg.a_lo, cfg.a_hi, SCAN_POINTS)
    scan_f, last_degenerate = _scan_values(spec, scan_levels, cfg.grid_points)
    valid = np.isfinite(scan_f)

    exact = np.nonzero(valid & (scan_f == 0.0))[0]
    cells = [
        i
        for i in range(SCAN_POINTS - 1)
        if valid[i] and valid[i + 1] and scan_f[i] * scan_f[i + 1] < 0.0
    ]
    if not (exact.size or cells):
        if classify_monotonicity(spec, cfg.grid_points).flat:
            raise NoSignChangeError(
                "the posterior level is constant, so the channel carries no "
                "information (mutual information is identically 0)"
            )
        if not valid.any():
            raise last_degenerate  # non-flat posterior with no evaluable level
        raise NoSignChangeError(
            "the stationarity function keeps one sign over the admissible "
            f"level range [{cfg.a_lo}, {cfg.a_hi}]; widen the range or check "
            "the channel"
        )

    if exact.size:
        i = j = int(exact[0])  # a zero-width bracket: its midpoint, no step
    else:
        if len(cells) > 1:
            spreads = [abs(scan_f[i + 1] - scan_f[i]) for i in cells]
            cells = [cells[int(np.argmax(spreads))]]
            notes.append(
                "multiple sign-change cells in the coarse scan (noise-level "
                "flats); kept the one with the largest spread"
            )
        i, j = cells[0], cells[0] + 1
    roots, iterations = _bracketed_secant(
        lambda levels: np.array([stationarity(spec, float(a), cfg.grid_points) for a in levels]),
        scan_levels[[i]], scan_levels[[j]], scan_f[[i]], scan_f[[j]],
        cfg.tol_a, 0.0, cfg.max_iter,
    )
    a_star = float(roots[0])
    fn = level_functionals(spec, a_star, cfg.grid_points)
    thresholds = fn.roots
    matrix = ChannelMatrix(a11=fn.correct0, a22=fn.correct1)
    mi_bits = mutual_information(spec.prior, matrix)
    r_star = (spec.prior.p1 / spec.prior.p0) * (1.0 - a_star) / a_star

    if thresholds:
        ratios = likelihood_ratio(spec, np.asarray(thresholds))
        residual = float(np.max(np.abs(ratios - r_star)) / r_star)
    else:
        residual = 0.0

    return QuantizerDesign(
        a_star=a_star,
        r_star=r_star,
        thresholds=thresholds,
        mapping=fn.mapping,
        channel=matrix,
        mi_bits=mi_bits,
        stationarity_residual=residual,
        iterations=iterations,
        notes=tuple(notes),
    )


def predict_single_threshold(spec: ChannelSpec, grid_points: int = 4096) -> bool:
    """Predict, before solving, whether one threshold suffices.

    True when the likelihood ratio is strictly monotone, or when density1 is
    a translate of density0 and density0 is strictly log-concave or
    log-convex.  A true prediction is confirmed by :func:`solve` returning
    exactly one threshold.
    """
    mono = classify_monotonicity(spec, grid_points)
    if mono.verdict in (Monotonicity.STRICTLY_INCREASING, Monotonicity.STRICTLY_DECREASING):
        return True
    shape = translate_log_concavity(spec, grid_points)
    return shape.shift_detected and (shape.log_concave or shape.log_convex)
