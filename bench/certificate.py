"""Independent certificate and output checks for the binquant benchmark.

Nothing here imports ``binquant``: the checks must not share a code path
with the program they judge.  Channels are read from the raw config
dictionaries the benchmark writes.

The certificate follows Kurkoski & Yagi, "Quantization of binary-input
discrete memoryless channels" (IEEE T-IT 2014): the optimal binary quantizer
of a binary-input DMC is contiguous in likelihood-ratio order.  The search
window is split into fine y-cells with exact Gaussian masses; sorting the
cells by ``log(m0/m1)`` and scanning the prefixes gives the best cell
quantizer.  Every labelling of cells is a feasible quantizer of the
continuous channel, so the best prefix is a lower bound that the solver's
mutual information must meet.

The same cells decide whether a generated channel meets the preconditions
that ``binquant solve`` and ``binquant verify`` state (see
:func:`precondition_failure`); the benchmark times only channels that do.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import entr, logsumexp, ndtr

#: Fine cells per channel, counting the two unbounded tail cells.
CELLS = 200_000

#: A solve may trail the certificate by at most this much (bits).
SOLVE_TOL_BITS = 1e-6

#: The levels ``binquant sweep --a-min 0.01 --a-max 0.99 --steps 99`` tabulates.
SWEEP_LEVELS = np.linspace(0.01, 0.99, 99)

#: Rounding slack for masses and mutual information read back from CSV.
ROUND_TOL = 1e-9

#: Levels at which the level-set quantizer's mutual information is taken to
#: count its peaks.
PEAK_LEVELS = np.linspace(1e-4, 1.0 - 1e-4, 4001)

#: A rise of the level-set MI by more than this (bits) after a fall is a second peak.
PEAK_TOL_BITS = 1e-12

#: Each error probability of the best cell quantizer must exceed this.
#: ``solve`` treats a level as degenerate when f or g is within 1e-12 of 0 or
#: 1, and raises when every level is.
MIN_ERROR = 1e-9

#: Points of the uniform grid on which ``binquant`` brackets level-set roots
#: (its documented default).
PROGRAM_GRID_POINTS = 4096

#: The posterior at each window edge must lie this close to 0 or 1.  ``verify``
#: checks f and g by finite differences at levels 0.05..0.95, so no level-set
#: root may leave the window at those levels.
EDGE_SLACK = 0.04

_LN2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _components(config: dict, key: str):
    comps = config[key]["components"]
    return (
        np.array([c["mean"] for c in comps], dtype=float),
        np.array([c["stddev"] for c in comps], dtype=float),
        np.array([c["weight"] for c in comps], dtype=float),
    )


def search_window(config: dict) -> tuple[float, float]:
    """The config's window, or the documented default: means +- 10 x largest stddev."""
    if "search" in config:
        return float(config["search"]["lo"]), float(config["search"]["hi"])
    comps = config["phi0"]["components"] + config["phi1"]["components"]
    smax = max(c["stddev"] for c in comps)
    means = [c["mean"] for c in comps]
    return min(means) - 10.0 * smax, max(means) + 10.0 * smax


def interval_masses(config: dict, key: str, edges: np.ndarray) -> np.ndarray:
    """Mass of one conditional density between consecutive ``edges`` (+-inf allowed).

    Right of each component's mean the difference is taken between upper
    tails, so no mass is lost to cancellation near 1.
    """
    mus, sigmas, weights = _components(config, key)
    out = np.zeros(edges.size - 1)
    for mu, sigma, w in zip(mus, sigmas, weights):
        z = (edges - mu) / sigma
        lower = ndtr(z[1:]) - ndtr(z[:-1])
        upper = ndtr(-z[:-1]) - ndtr(-z[1:])
        out += w * np.where(z[:-1] >= 0.0, upper, lower)
    return np.maximum(out, 0.0)


def log_ratio(config: dict, y: np.ndarray) -> np.ndarray:
    """log(density0(y) / density1(y)) by log-sum-exp over the raw parameters."""

    def log_density(key):
        mus, sigmas, weights = _components(config, key)
        z = (y[:, None] - mus) / sigmas
        return logsumexp(-0.5 * z * z - np.log(sigmas) - _LOG_SQRT_2PI + np.log(weights), axis=1)

    return log_density("phi0") - log_density("phi1")


def mi_bits(p0: float, a11, a22):
    """I(X;Z) in bits of the binary channel with correct-decision masses a11, a22."""
    a11 = np.asarray(a11, dtype=float)
    a22 = np.asarray(a22, dtype=float)
    p1 = 1.0 - p0

    def h2(w):
        return (entr(w) + entr(1.0 - w)) / _LN2

    q0 = p0 * a11 + p1 * (1.0 - a22)
    return np.maximum(0.0, h2(q0) - p0 * h2(a11) - p1 * h2(a22))


@dataclass(frozen=True)
class Certificate:
    """What the checks need from one channel's cells.

    ``mi_bits`` is the best cell quantizer's mutual information.  The
    ``f_*``/``g_*`` lists bound the correct-decision masses of the level-set
    quantizer at each of :data:`SWEEP_LEVELS` (see :func:`level_mass_bounds`).
    ``excluded`` is why the channel fails a precondition of the program, or
    None (see :func:`precondition_failure`).
    """

    mi_bits: float
    p0: float
    single_gaussian: bool
    non_monotone: bool
    excluded: str | None
    f_lo: list
    f_hi: list
    g_lo: list
    g_hi: list


def best_prefix(p0: float, m0: np.ndarray, m1: np.ndarray) -> tuple[float, float, float]:
    """Best labelling that sends the cells of largest ``m0/m1`` to Z=0: (MI, a11, a22)."""
    live = (m0 > 0.0) | (m1 > 0.0)
    with np.errstate(divide="ignore"):
        lr = np.log(m0[live]) - np.log(m1[live])
    order = np.argsort(-lr, kind="stable")
    a11 = np.minimum(np.concatenate(([0.0], np.cumsum(m0[live][order]))), 1.0)
    a22 = np.clip(1.0 - np.concatenate(([0.0], np.cumsum(m1[live][order]))), 0.0, 1.0)
    mi = mi_bits(p0, a11, a22)
    k = int(np.argmax(mi))
    return float(mi[k]), float(a11[k]), float(a22[k])


def level_set_mi(p0: float, m0: np.ndarray, m1: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """MI of the cell quantizer {posterior < a} -> one label, at each level ``a``."""
    live = (m0 > 0.0) | (m1 > 0.0)
    mass0 = p0 * m0[live]
    u = mass0 / (mass0 + (1.0 - p0) * m1[live])
    order = np.argsort(u, kind="stable")
    a11 = np.concatenate(([0.0], np.cumsum(m0[live][order])))
    a22 = 1.0 - np.concatenate(([0.0], np.cumsum(m1[live][order])))
    k = np.searchsorted(u[order], levels, side="left")
    return mi_bits(p0, np.minimum(a11[k], 1.0), np.clip(a22[k], 0.0, 1.0))


def peaks(values: np.ndarray, tol: float) -> int:
    """Local maxima of a sequence, where only moves by more than ``tol`` count."""
    count, rising, extreme = 0, True, values[0]
    for v in values[1:]:
        if rising and v < extreme - tol:
            count, rising, extreme = count + 1, False, v
        elif not rising and v > extreme + tol:
            rising, extreme = True, v
        elif (v > extreme) == rising:
            extreme = v
    return count + rising


def unresolved_level(config: dict, log_r_edges, levels) -> float | None:
    """The first level whose level set a :data:`PROGRAM_GRID_POINTS` grid under-counts, or None.

    Roots are counted as sign changes of ``log r - t`` on that grid and on
    the certificate's fine edges (``log_r_edges``), over the search window.
    """
    p0 = float(config["prior"]["p0"])
    lo, hi = search_window(config)
    coarse = log_ratio(config, np.linspace(lo, hi, PROGRAM_GRID_POINTS))
    for a in levels:
        t = math.log((1.0 - p0) * (1.0 - a) / (p0 * a))
        counts = [np.count_nonzero(np.diff(np.signbit(v - t))) for v in (coarse, log_r_edges)]
        if counts[0] != counts[1]:
            return float(a)
    return None


def precondition_failure(config: dict, m0, m1, log_r_edges, best) -> str | None:
    """Why ``config`` breaks a precondition the program states, or None.

    ``best`` is :func:`best_prefix` of the cell masses ``m0``, ``m1``.

    * ``solve`` needs levels whose f and g are not within 1e-12 of 0 or 1; a
      channel whose densities barely overlap has none, and ``solve`` exits
      with a degenerate-channel error.  Both error probabilities of the best
      cell quantizer must exceed :data:`MIN_ERROR`.
    * ``solve`` bisects the one sign change of F, and ``verify`` checks that F
      changes sign once; both hold only when the level-set quantizer's MI has
      a single peak over the levels.  Multimodal mixtures can have two
      (ROADMAP item 2), and then ``solve`` may return the lower one.
    * ``binquant`` brackets the roots of a level set on a uniform grid of
      :data:`PROGRAM_GRID_POINTS` points, so two roots closer than its
      spacing go unseen (ROADMAP item 3).  At every level of
      :data:`SWEEP_LEVELS` that grid must find as many sign changes of
      ``log r - t`` as the certificate's edges do.
    * ``verify`` differentiates f and g numerically at levels 0.05..0.95; a
      level-set root that leaves the search window there breaks that check,
      so the posterior at both window edges must be within
      :data:`EDGE_SLACK` of 0 or 1.
    """
    p0 = float(config["prior"]["p0"])
    _, a11, a22 = best
    if min(1.0 - a11, 1.0 - a22) <= MIN_ERROR:
        return f"error probabilities {1.0 - a11:.3g}, {1.0 - a22:.3g} of the best quantizer"
    n_peaks = peaks(level_set_mi(p0, m0, m1, PEAK_LEVELS), PEAK_TOL_BITS)
    if n_peaks > 1:
        return f"level-set MI has {n_peaks} peaks"
    a = unresolved_level(config, log_r_edges, SWEEP_LEVELS)
    if a is not None:
        return f"level set at a={a:.2f} finer than a {PROGRAM_GRID_POINTS}-point grid"
    with np.errstate(over="ignore"):
        edge_u = 1.0 / (1.0 + np.exp(-log_r_edges[[0, -1]]) * (1.0 - p0) / p0)
    if np.any((edge_u > EDGE_SLACK) & (edge_u < 1.0 - EDGE_SLACK)):
        return f"posterior {edge_u[0]:.3g}, {edge_u[-1]:.3g} at the window edges"
    return None


def certify(config: dict, cells: int = CELLS) -> Certificate:
    """Certificate of ``config``: a lower bound on its optimal I(X;Z), and mass bounds."""
    p0 = float(config["prior"]["p0"])
    lo, hi = search_window(config)
    edges = np.linspace(lo, hi, cells - 1)
    all_edges = np.concatenate(([-np.inf], edges, [np.inf]))
    m0 = interval_masses(config, "phi0", all_edges)
    m1 = interval_masses(config, "phi1", all_edges)
    m0 /= m0.sum()
    m1 /= m1.sum()
    log_r = log_ratio(config, edges)
    d = np.diff(log_r)
    bounds = level_mass_bounds(p0, m0, m1, log_r, SWEEP_LEVELS)
    best = best_prefix(p0, m0, m1)
    return Certificate(
        mi_bits=best[0],
        p0=p0,
        single_gaussian=all(len(config[k]["components"]) == 1 for k in ("phi0", "phi1")),
        non_monotone=not bool(np.all(d > -1e-12) or np.all(d < 1e-12)),
        excluded=precondition_failure(config, m0, m1, log_r, best),
        **{k: v.tolist() for k, v in zip(("f_lo", "f_hi", "g_lo", "g_hi"), bounds)},
    )


def _ordered_thresholds(values) -> bool:
    return all(math.isfinite(v) for v in values) and all(a < b for a, b in zip(values, values[1:]))


def _design_mi(config: dict, thresholds, mapping: str) -> float:
    """Exact MI of an alternating-label design, from this module's own masses."""
    p0 = float(config["prior"]["p0"])
    edges = np.concatenate(([-np.inf], np.asarray(thresholds, dtype=float), [np.inf]))
    seg0 = interval_masses(config, "phi0", edges)
    seg1 = interval_masses(config, "phi1", edges)
    odd = slice(0, None, 2)
    even = slice(1, None, 2)
    if mapping == "odd_to_zero":
        a11, a22 = seg0[odd].sum(), seg1[even].sum()
    else:
        a11, a22 = seg0[even].sum(), seg1[odd].sum()
    return float(mi_bits(p0, min(a11, 1.0), min(a22, 1.0)))


def check_solve(config: dict, cert: Certificate, text: str) -> str | None:
    """None if a ``solve --format json`` output is right, else the reason it is not."""
    try:
        design = json.loads(text)
        thresholds = [float(h) for h in design["thresholds"]]
        mapping = design["mapping"]
        reported = float(design["mi_bits"])
    except (ValueError, KeyError, TypeError) as err:
        return f"unparsable solve output: {err}"
    if mapping not in ("odd_to_zero", "even_to_zero"):
        return f"unknown mapping {mapping!r}"
    if not _ordered_thresholds(thresholds):
        return f"thresholds not finite and increasing: {thresholds}"
    recomputed = _design_mi(config, thresholds, mapping)
    if abs(recomputed - reported) > ROUND_TOL:
        return f"reported mi_bits {reported!r} but the thresholds give {recomputed!r}"
    if reported < cert.mi_bits - SOLVE_TOL_BITS:
        return f"mi_bits {reported:.9f} below the certificate {cert.mi_bits:.9f}"
    return None


def check_verify(cert: Certificate, text: str) -> str | None:
    """None if a passing ``verify`` report meets the certificate, else the reason."""
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "verification PASSED":
        return "verify did not pass"
    solver_line = next((ln for ln in lines if ln.startswith("solver mi_bits")), "")
    try:
        printed = float(solver_line.split()[2])
    except (IndexError, ValueError):
        return f"verify output has no solver mi_bits: {solver_line!r}"
    if not math.isfinite(printed):
        return f"solver mi_bits is {printed}"
    # the text report carries 6 significant digits
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 5) if printed else 0.0
    if printed < cert.mi_bits - SOLVE_TOL_BITS - half_digit:
        return f"solver mi_bits {printed} below the certificate {cert.mi_bits:.9f}"
    return None


def level_mass_bounds(p0: float, m0, m1, log_r_edges, levels: np.ndarray):
    """Bounds on f(a) and g(a) for the quantizer {u < a} -> Z=0, from the cells.

    A cell is certain when log r stays on one side of the level's threshold
    ``t = log(p1 (1-a) / (p0 a))`` at both of its edges and no extremum of
    log r lies next to it; its whole mass then lies in one region.  The mass
    of every other cell may fall on either side.  ``m0``/``m1`` are the cell
    masses including the two tail cells; ``log_r_edges`` is log r at the
    finite edges.  Returns (f_lo, f_hi, g_lo, g_hi) arrays over ``levels``.
    """
    L = log_r_edges
    n_inner = L.size - 1
    left, right = L[:-1], L[1:]
    flag = np.zeros(n_inner, dtype=bool)
    turn = np.nonzero(np.diff(L)[:-1] * np.diff(L)[1:] <= 0.0)[0] + 1  # extremum edges
    flag[turn - 1] = True
    flag[np.minimum(turn, n_inner - 1)] = True
    m0 = m0[1:-1]
    m1 = m1[1:-1]
    cell_min = np.where(flag, np.inf, np.minimum(left, right))
    cell_max = np.where(flag, -np.inf, np.maximum(left, right))

    t = np.log((1.0 - p0) * (1.0 - levels) / (p0 * levels))

    def mass_above(keys, mass, thresholds):
        order = np.argsort(keys)
        tail = np.concatenate((np.cumsum(mass[order][::-1])[::-1], [0.0]))
        return tail[np.searchsorted(keys[order], thresholds, side="right")]

    def mass_below(keys, mass, thresholds):
        order = np.argsort(keys)
        head = np.concatenate(([0.0], np.cumsum(mass[order])))
        return head[np.searchsorted(keys[order], thresholds, side="left")]

    finite_min = np.where(np.isfinite(cell_min), cell_min, -np.inf)
    f_lo = mass_above(finite_min, m0, t)
    g_lo = mass_below(np.where(np.isfinite(cell_max), cell_max, np.inf), m1, t)
    # everything not certainly in the other region may belong to this one
    f_hi = 1.0 - mass_below(np.where(np.isfinite(cell_max), cell_max, np.inf), m0, t)
    g_hi = 1.0 - mass_above(finite_min, m1, t)
    return f_lo, f_hi, g_lo, g_hi


def check_sweep(cert: Certificate, text: str) -> str | None:
    """None if a ``sweep`` CSV agrees with the cells at every level, else the reason."""
    lines = text.splitlines()
    if not lines or lines[0] != "a,f,g,F,mi_bits,n_roots,degenerate":
        return "sweep CSV header is wrong"
    rows = lines[1:]
    levels = SWEEP_LEVELS
    if len(rows) != levels.size:
        return f"sweep has {len(rows)} rows, expected {levels.size}"
    try:
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as err:
        return f"unparsable sweep row: {err}"
    if table.shape[1] != 7:
        return "sweep rows need 7 fields"
    a, f, g, mi = table[:, 0], table[:, 1], table[:, 2], table[:, 4]
    if np.any(np.abs(a - levels) > 1e-15):
        return "sweep levels differ from the requested grid"
    f_lo, f_hi, g_lo, g_hi = (np.asarray(b) for b in (cert.f_lo, cert.f_hi, cert.g_lo, cert.g_hi))
    bad = (f < f_lo - ROUND_TOL) | (f > f_hi + ROUND_TOL) | (g < g_lo - ROUND_TOL) | (g > g_hi + ROUND_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        return (
            f"level {a[k]:.4g}: f={f[k]:.9g} not in [{f_lo[k]:.9g}, {f_hi[k]:.9g}] "
            f"or g={g[k]:.9g} not in [{g_lo[k]:.9g}, {g_hi[k]:.9g}]"
        )
    expected = mi_bits(cert.p0, f, g)
    if np.any(np.abs(expected - mi) > ROUND_TOL):
        k = int(np.argmax(np.abs(expected - mi)))
        return f"level {a[k]:.4g}: mi_bits {mi[k]!r} but f, g give {expected[k]!r}"
    return None


def main(paths) -> int:
    """Print the certificate of each config file as one JSON object keyed by file stem."""
    certs = {Path(p).stem: asdict(certify(json.loads(Path(p).read_text()))) for p in paths}
    print(json.dumps(certs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
