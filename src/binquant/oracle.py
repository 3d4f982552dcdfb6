"""Brute-force verification of solved quantizer designs.

:func:`grid_search` does not reuse the solver's level search: it maximizes
the mutual information by exhaustive enumeration of threshold tuples on a
uniform grid, with n = 2 and n = 3 sharing one blocked loop (it uses the
mass and MI formulas of :mod:`binquant.channel`; the check that shares no
code at all is ``bench/certificate.py``).  :func:`sweep_levels` tabulates
the level functionals across the whole admissible range, and
:func:`structural_checks` validates structural facts of the level
functionals (mass monotonicity, the derivative relation between the
correct-decision masses, the product bound) with central finite differences
and counts the sign changes of the stationarity function.  Each takes all
of its levels, F and the degeneracy verdict from one
:func:`~binquant.channel.level_functionals_batch` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _mi_bits, channel_matrix, level_functionals_batch, mutual_information
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

_ROW_BLOCK = 128


@dataclass(frozen=True)
class OracleResult:
    """Best quantizer found by exhaustive grid search.

    ``best_thresholds`` lies on the search grid.  Relabeling Z leaves
    I(X;Z) unchanged, so the enumeration scores each tuple under one label
    mapping only; ``best_mi_bits`` is the exact mutual information
    recomputed at the winning thresholds (max over the two label mappings).
    Ties break to the lexicographically smallest tuple.
    """

    best_mi_bits: float
    best_thresholds: Thresholds
    n_evaluated: int
    grid_step: float


def _threshold_grid(spec: ChannelSpec, grid_step: float) -> np.ndarray:
    count = int(math.floor((spec.search_hi - spec.search_lo) / grid_step + 1e-9)) + 1
    return spec.search_lo + grid_step * np.arange(count)


def grid_search(spec: ChannelSpec, n_thresholds: int, grid_step: float) -> OracleResult:
    """Exhaustive MI maximization over strictly increasing threshold tuples.

    Every n-tuple on the uniform grid over the search window is evaluated
    once (the label mapping does not change I(X;Z)) and the maximum is kept.
    ``n_thresholds`` is capped at 3: the enumeration is O((range/step)^n),
    and anything larger is better exercised through :func:`sweep_levels`.
    """
    if n_thresholds not in (1, 2, 3):
        raise InvalidSpecError(f"n_thresholds must be 1, 2, or 3, got {n_thresholds!r}")
    if not grid_step > 0.0:
        raise InvalidSpecError(f"grid_step must be > 0, got {grid_step!r}")

    grid = _threshold_grid(spec, grid_step)
    npts = grid.size
    if npts < n_thresholds:
        raise InvalidSpecError("grid has fewer points than requested thresholds")
    p0 = spec.prior.p0
    c0 = cdf(spec.density0, grid)
    c1 = cdf(spec.density1, grid)

    best_mi = -np.inf
    best: tuple[int, ...] = ()
    n_evaluated = 0

    if n_thresholds == 1:
        mi = _mi_bits(p0, c0, 1.0 - c1)
        k = int(np.argmax(mi))
        best_mi, best = float(mi[k]), (k,)
        n_evaluated = npts

    else:
        # relabeling Z leaves I(X;Z) unchanged, so an n = 2 tuple scores as an
        # n = 3 one whose first segment (-inf, h_i) is empty: one loop over
        # row blocks of j against every later k serves both
        idx = np.arange(npts)
        if n_thresholds == 2:
            heads = [((), 0.0, 0.0, 0)]
        else:
            heads = [((i,), c0[i], c1[i], i + 1) for i in range(npts - 2)]
        for head, base0, base1, j0 in heads:
            for r0 in range(j0, npts - 1, _ROW_BLOCK):
                r1 = min(r0 + _ROW_BLOCK, npts - 1)
                rows = idx[r0:r1, None]
                ks = idx[None, r0 + 1 :]
                upper = ks > rows
                a11 = base0 + (c0[ks] - c0[rows])
                a22 = (c1[rows] - base1) + (1.0 - c1[ks])
                mi = np.where(upper, _mi_bits(p0, a11, a22), -np.inf)
                k = int(np.argmax(mi))
                if mi.flat[k] > best_mi:
                    best_mi = float(mi.flat[k])
                    best = (*head, r0 + k // ks.size, r0 + 1 + k % ks.size)
                n_evaluated += int(upper.sum())

    thresholds = tuple(float(grid[k]) for k in best)
    exact = max(
        mutual_information(spec.prior, channel_matrix(spec, thresholds, "odd_to_zero")),
        mutual_information(spec.prior, channel_matrix(spec, thresholds, "even_to_zero")),
    )
    return OracleResult(
        best_mi_bits=exact,
        best_thresholds=thresholds,
        n_evaluated=n_evaluated,
        grid_step=grid_step,
    )


@dataclass(frozen=True)
class SweepRow:
    """One tabulated level: masses, stationarity value, MI, and root count.

    ``degenerate`` rows (masses at machine 0/1) carry NaN in
    ``stationarity_value`` but are emitted rather than dropped.
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

    All levels go through one :func:`~binquant.channel.level_functionals_batch`
    call; ``mi_bits`` is the mutual information of each level's masses.
    """
    fns = level_functionals_batch(spec, levels, grid_points)
    f = np.array([fn.correct0 for fn in fns])
    g = np.array([fn.correct1 for fn in fns])
    return [
        SweepRow(
            level=fn.level,
            correct0=fn.correct0,
            correct1=fn.correct1,
            stationarity_value=fn.stationarity_value,
            mi_bits=mi,
            n_roots=len(fn.roots),
            degenerate=math.isnan(fn.stationarity_value),
        )
        for fn, mi in zip(fns, _mi_bits(spec.prior.p0, f, g).tolist())
    ]


@dataclass(frozen=True)
class StructuralCheck:
    """Outcome of one structural check: worst violation vs its tolerance."""

    name: str
    passed: bool
    worst_violation: float
    tolerance: float


def structural_checks(
    spec: ChannelSpec,
    levels=None,
    fd_step: float = 1e-5,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> dict[str, StructuralCheck]:
    """Numerically validate the structural facts of the level functionals.

    On the level grid (default 0.05, 0.10, ..., 0.95):

    * ``monotone_masses`` - f non-decreasing, g non-increasing (slack 1e-10);
    * ``mass_sum_lower_bound`` - f + g >= 1 (slack 1e-9);
    * ``derivative_relation`` - central differences satisfy
      f'(a) = -((1-a) p1 / (a p0)) g'(a) within relative 1e-3;
    * ``crossterm_product_bound`` - with A = (p0 f + p1(1-g))(p0(1-f) + p1 g)
      and B = p0 f(1-f) + p1 g(1-g), A >= B (slack 1e-12);
    * ``stationarity_single_crossing`` - F changes sign exactly once across
      the evaluable levels (positive below the optimum, negative above);
      the worst violation is |sign changes - 1|.  F itself is monotone
      only when the posterior has a single extremum; at levels where new
      posterior dips join the level set it can jump upward, and a channel
      whose mutual information has two peaks over the level fails this
      check.  The solver does not rely on it: it brackets every candidate
      peak.

    Degenerate levels participate in the mass checks (their masses are exact
    0/1) and are skipped only by the stationarity check.  The levels and
    their +- ``fd_step`` neighbours, 3 x 19 by default, go through one
    :func:`~binquant.channel.level_functionals_batch` call.
    """
    if levels is None:
        levels = np.linspace(0.05, 0.95, 19)
    levels = np.sort(np.asarray([float(a) for a in levels]))
    if not fd_step > 0.0:
        raise InvalidSpecError(f"fd_step must be > 0, got {fd_step!r}")
    if levels[0] - fd_step <= 1e-9 or levels[-1] + fd_step >= 1.0 - 1e-9:
        raise InvalidSpecError("levels +- fd_step must stay inside (0, 1)")

    p0, p1 = spec.prior.p0, spec.prior.p1
    fns = level_functionals_batch(
        spec, np.concatenate([levels, levels + fd_step, levels - fd_step]), grid_points
    )
    f, f_hi, f_lo = np.array([fn.correct0 for fn in fns]).reshape(3, -1)
    g, g_hi, g_lo = np.array([fn.correct1 for fn in fns]).reshape(3, -1)
    f_stat = np.array([fn.stationarity_value for fn in fns[: levels.size]])
    f_prime = (f_hi - f_lo) / (2.0 * fd_step)
    g_prime = (g_hi - g_lo) / (2.0 * fd_step)

    checks: dict[str, StructuralCheck] = {}

    def add(name: str, worst: float, tol: float):
        checks[name] = StructuralCheck(name, passed=bool(worst <= tol), worst_violation=float(worst), tolerance=tol)

    worst_mono = max(
        float(np.max(f[:-1] - f[1:], initial=0.0)),
        float(np.max(g[1:] - g[:-1], initial=0.0)),
        0.0,
    )
    add("monotone_masses", worst_mono, 1e-10)

    add("mass_sum_lower_bound", max(0.0, float(np.max(1.0 - (f + g)))), 1e-9)

    predicted = -((1.0 - levels) * p1 / (levels * p0)) * g_prime
    scale = np.maximum(np.maximum(np.abs(f_prime), np.abs(predicted)), 1e-12)
    add("derivative_relation", float(np.max(np.abs(f_prime - predicted) / scale)), 1e-3)

    cross_a = (p0 * f + p1 * (1.0 - g)) * (p0 * (1.0 - f) + p1 * g)
    cross_b = p0 * f * (1.0 - f) + p1 * g * (1.0 - g)
    add("crossterm_product_bound", max(0.0, float(np.max(cross_b - cross_a))), 1e-12)

    stat = f_stat[np.isfinite(f_stat)]
    signs = np.sign(stat[np.abs(stat) > 0.0])
    crossings = int(np.sum(signs[1:] != signs[:-1])) if signs.size > 1 else 0
    add("stationarity_single_crossing", float(abs(crossings - 1)), 0.0)

    return checks
