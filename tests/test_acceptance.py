"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 2 pins the mutual-information optimum of the unequal-variance
channel: level 0.320553, thresholds -0.767130 / 3.767130, 0.261383 bits.
The values once supplied for it (level 0.412, thresholds -0.5374 / 3.5374)
were rejected: they are the level set u(y) = 0.412, which satisfies the
equal-ratio condition but gives only 0.257234 bits.  The optimum is
confirmed by an independent 30-digit computation, by the likelihood-ratio
cell certificate of the benchmark, and by the two-threshold grid search of
criterion 3.  The rejected pair stays in criterion 2 as a negative check:
its mutual information must lie strictly below the solved design's.
"""

import time

import numpy as np

from binquant import (
    DensityModel,
    GaussianComponent,
    Prior,
    SolverConfig,
    channel_matrix,
    channel_spec,
    find_level_set,
    grid_search,
    mutual_information,
    structural_checks,
    predict_single_threshold,
    solve,
    sweep_levels,
)

REGRESSION_SEED = 20250809


# Optimum of example2 (p0 = 0.5, phi0 = N(-1, sd sqrt(5)), phi1 = N(1, 1)),
# derived with mpmath at 30 digits and no binquant code: log r is quadratic,
# so both thresholds sit symmetrically about
# (mu1 sd0^2 - mu0 sd1^2) / (sd0^2 - sd1^2) = 1.5.  Maximizing I(X;Z) over
# the half-width w (a root of dI/dw) gives w = 2.267129943149501, the
# thresholds 1.5 -/+ w, 0.2613828227377633 bits, and the posterior level
# a* = P(X=1 | y) at either threshold.
EX2_A_STAR = 0.3205528447713517
EX2_THRESHOLDS = (-0.767129943149501, 3.767129943149501)
EX2_MI = 0.2613828227377633
# The level set u(y) = 0.412 once supplied as this channel's design.  It
# gives 0.2572337701 bits, so it is not the optimum.
QUOTED_THRESHOLDS = (-0.5374, 3.5374)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<34} {status}  {detail}")


def test_criterion_1_symmetric_reproduction(example1_spec):
    t0 = time.perf_counter()
    design = solve(example1_spec)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(design.a_star - 0.5) <= 1e-6
        and len(design.thresholds) == 1
        and abs(design.thresholds[0]) <= 1e-6
        and elapsed < 1.0
    )
    _report(1, "symmetric single threshold", ok,
            f"a*={design.a_star:.8f} h={design.thresholds[0]:.2e} t={elapsed:.2f}s")
    assert ok


def test_criterion_2_heavy_tail_reproduction(example2_spec):
    t0 = time.perf_counter()
    design = solve(example2_spec)
    elapsed = time.perf_counter() - t0

    residual_ok = design.stationarity_residual <= 1e-6
    runtime_ok = elapsed < 1.0
    a_ok = abs(design.a_star - EX2_A_STAR) <= 5e-4
    h_ok = (
        len(design.thresholds) == 2
        and abs(design.thresholds[0] - EX2_THRESHOLDS[0]) <= 1e-3
        and abs(design.thresholds[1] - EX2_THRESHOLDS[1]) <= 1e-3
    )
    mi_ok = abs(design.mi_bits - EX2_MI) <= 1e-6
    quoted = channel_matrix(example2_spec, QUOTED_THRESHOLDS, "odd_to_zero")
    quoted_mi = mutual_information(example2_spec.prior, quoted)
    quoted_below = quoted_mi < design.mi_bits
    ok = residual_ok and runtime_ok and a_ok and h_ok and mi_ok and quoted_below
    _report(2, "heavy-tail two thresholds", ok,
            f"a*={design.a_star:.6f} h={tuple(round(h, 6) for h in design.thresholds)} "
            f"mi={design.mi_bits:.6f} (rejected 0.412 pair: {quoted_mi:.6f}) "
            f"residual={design.stationarity_residual:.1e} t={elapsed:.2f}s")

    assert residual_ok and runtime_ok
    assert a_ok and h_ok and mi_ok, (
        f"a*={design.a_star}, thresholds {design.thresholds}, "
        f"mi={design.mi_bits} bits; expected a*={EX2_A_STAR}, "
        f"thresholds {EX2_THRESHOLDS}, mi={EX2_MI} bits"
    )
    assert quoted_below, (
        f"the level-0.412 pair {QUOTED_THRESHOLDS} gives {quoted_mi} bits, "
        f"not below the design's {design.mi_bits} bits"
    )


def test_criterion_3_oracle_is_the_mi_authority(example1_spec, example2_spec):
    d1 = solve(example1_spec)
    o1 = grid_search(example1_spec, 1, 0.01)
    gap1 = d1.mi_bits - o1.best_mi_bits

    d2 = solve(example2_spec)
    o2 = grid_search(example2_spec, 2, 0.02)
    gap2 = d2.mi_bits - o2.best_mi_bits

    ok = abs(gap1) <= 1e-4 and gap2 >= -1e-4
    _report(3, "solver matches brute-force MI", ok,
            f"|gap1|={abs(gap1):.2e} gap2={gap2:+.2e} "
            f"(mi1={d1.mi_bits:.6f}, mi2={d2.mi_bits:.6f})")
    assert ok


def test_criterion_4_six_root_level_set(fig5_spec):
    t0 = time.perf_counter()
    level_set = find_level_set(fig5_spec, 0.5)
    elapsed = time.perf_counter() - t0
    ok = len(level_set.roots) == 6 and elapsed < 1.0
    _report(4, "three-bump level set at 0.5", ok,
            f"roots={len(level_set.roots)} t={elapsed:.2f}s")
    assert ok


def _sweep_properties(spec) -> dict[str, tuple[float, float]]:
    """The product bound and the one sign change of F on 0.05, ..., 0.95: (worst violation, tolerance).

    With A = (p0 f + p1 (1-g)) (p0 (1-f) + p1 g) and B = p0 f (1-f) + p1 g (1-g),
    A >= B; F changes sign once on these channels, from + to - at the optimum.
    """
    rows = sweep_levels(spec, np.linspace(0.05, 0.95, 19))
    p0, p1 = spec.prior.p0, spec.prior.p1
    f, g = np.array([r.correct0 for r in rows]), np.array([r.correct1 for r in rows])
    cross_a = (p0 * f + p1 * (1.0 - g)) * (p0 * (1.0 - f) + p1 * g)
    cross_b = p0 * f * (1.0 - f) + p1 * g * (1.0 - g)
    signs = np.sign([r.stationarity_value for r in rows if not r.degenerate and r.stationarity_value != 0.0])
    return {
        "crossterm_product_bound": (max(0.0, float(np.max(cross_b - cross_a))), 1e-12),
        "stationarity_single_crossing": (abs(int(np.sum(signs[1:] != signs[:-1])) - 1), 0.0),
    }


def test_criterion_5_property_suite(example1_spec, example2_spec, fig5_spec):
    t0 = time.perf_counter()
    worst_by_check = {}
    all_ok = True
    for spec in (example1_spec, example2_spec, fig5_spec):
        results = {c.name: (c.worst_violation, c.tolerance) for c in structural_checks(spec).values()}
        results.update(_sweep_properties(spec))
        for name, (worst, tolerance) in results.items():
            all_ok &= worst <= tolerance
            worst_by_check[name] = max(worst_by_check.get(name, 0.0), worst)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    worst = max(worst_by_check.values())
    _report(5, "structural property suite", ok,
            f"worst violation={worst:.2e} t={elapsed:.1f}s")
    assert ok, worst_by_check


def test_criterion_6_unique_stationary_point(example2_spec):
    brackets = [(1e-6, 1 - 1e-6), (0.05, 0.95), (0.1, 0.8), (0.2, 0.6), (0.25, 0.45)]
    results = [
        solve(example2_spec, SolverConfig(a_lo=lo, a_hi=hi)).a_star for lo, hi in brackets
    ]
    spread = max(results) - min(results)
    ok = spread <= 1e-8
    _report(6, "uniqueness across brackets", ok, f"spread={spread:.2e}")
    assert ok


def test_criterion_7_two_thresholds_dominate(example2_spec):
    design = solve(example2_spec)
    single = grid_search(example2_spec, 1, 0.02)
    margin = design.mi_bits - single.best_mi_bits
    ok = margin > 1e-3
    _report(7, "multi-threshold dominance", ok, f"margin={margin:.2e} bits")
    assert ok


def test_criterion_8_structure_predictions(example1_spec, example2_spec):
    predict1 = predict_single_threshold(example1_spec)
    predict2 = predict_single_threshold(example2_spec)
    n1 = len(solve(example1_spec).thresholds)
    n2 = len(solve(example2_spec).thresholds)
    ok = predict1 and n1 == 1 and (not predict2) and n2 == 2
    _report(8, "single-threshold predictions", ok,
            f"predicted=({predict1},{predict2}) solved=({n1},{n2})")
    assert ok


def test_criterion_9_randomized_regression():
    rng = np.random.default_rng(REGRESSION_SEED)
    t0 = time.perf_counter()
    worst_gap = np.inf
    worst_residual = 0.0
    for i in range(20):
        mean0, mean1 = rng.uniform(-3.0, 3.0, size=2)
        stddev0, stddev1 = rng.uniform(0.5, 3.0, size=2)
        p0 = rng.uniform(0.2, 0.8)
        spec = channel_spec(
            Prior(p0=float(p0)),
            DensityModel((GaussianComponent(float(mean0), float(stddev0), 1.0),)),
            DensityModel((GaussianComponent(float(mean1), float(stddev1), 1.0),)),
        )
        design = solve(spec)
        n = min(len(design.thresholds), 2)
        oracle = grid_search(spec, n, 0.02)
        gap = design.mi_bits - oracle.best_mi_bits
        worst_gap = min(worst_gap, gap)
        worst_residual = max(worst_residual, design.stationarity_residual)
        assert gap >= -1e-4, f"instance {i}: solver {design.mi_bits} < oracle {oracle.best_mi_bits}"
        assert design.stationarity_residual <= 1e-5, f"instance {i}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(9, "randomized regression (20 runs)", ok,
            f"worst gap={worst_gap:+.2e} worst residual={worst_residual:.1e} t={elapsed:.0f}s")
    assert ok
