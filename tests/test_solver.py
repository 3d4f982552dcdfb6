"""End-to-end solver: the bracketed level search, design assembly, and the equal-ratio certificate."""

import numpy as np
import pytest

from binquant import (
    NoSignChangeError,
    NotConvergedError,
    SolverConfig,
    grid_search,
    likelihood_ratio,
    posterior,
    predict_single_threshold,
    solve,
)
from binquant import solver

# independently verified optima (mpmath, 30 dps, closed-form level sets)
EX2_A_STAR = 0.3205528447713517
EX2_R_STAR = 2.1196104365047628
EX2_THRESHOLDS = (-0.767129943149501, 3.767129943149501)
EX2_MI = 0.2613828227377633
EX1_MI = 0.3689172325944581

ASYM_A_STAR = 0.4524232812293718
ASYM_THRESHOLDS = (-0.9201762278630860, 3.9201762278630861)
ASYM_MI = 0.2451143806329019
ASYM_R_STAR = 2.8240788294381231

FIG5_A_STAR = 0.6558422342333174
FIG5_MI = 0.2301662756102509
FIG5_THRESHOLDS = (
    -3.853884983,
    -2.191311228,
    -0.8536421926,
    0.9915548062,
    2.264761835,
    3.847384496,
)


def _equal_ratio_residual(spec, design):
    """max_i |r(h_i) - r*| / r*, recomputed from the likelihood ratio."""
    ratios = likelihood_ratio(spec, np.asarray(design.thresholds))
    return float(np.max(np.abs(ratios - design.r_star)) / design.r_star), ratios


class TestSolveSymmetric:
    def test_design(self, example1_spec):
        design = solve(example1_spec)
        assert design.a_star == pytest.approx(0.5, abs=1e-6)
        assert len(design.thresholds) == 1
        assert design.thresholds[0] == pytest.approx(0.0, abs=1e-6)
        assert design.r_star == pytest.approx(1.0, abs=1e-6)
        assert design.mi_bits == pytest.approx(EX1_MI, abs=1e-9)
        assert design.stationarity_residual <= 1e-8
        assert design.mapping == "odd_to_zero"

    def test_exact_zero_on_the_scan_takes_no_step(self, example1_spec):
        # the scan's 32nd level is exactly 0.5, where F is exactly 0 by symmetry
        design = solve(example1_spec, SolverConfig(a_lo=0.5 - 31 / 126, a_hi=0.5 + 32 / 126))
        assert (design.a_star, design.iterations, design.thresholds) == (0.5, 0, (0.0,))


class TestSolveUnequalVariance:
    def test_design(self, example2_spec):
        design = solve(example2_spec)
        assert design.a_star == pytest.approx(EX2_A_STAR, abs=1e-8)
        np.testing.assert_allclose(design.thresholds, EX2_THRESHOLDS, atol=1e-8)
        assert design.r_star == pytest.approx(EX2_R_STAR, rel=1e-8)
        assert design.mi_bits == pytest.approx(EX2_MI, abs=1e-10)
        assert design.stationarity_residual <= 1e-6
        assert design.mapping == "odd_to_zero"

    def test_r_star_consistency(self, example2_spec):
        design = solve(example2_spec)
        p0, p1 = example2_spec.prior.p0, example2_spec.prior.p1
        expected = (p1 / p0) * (1.0 - design.a_star) / design.a_star
        assert design.r_star == pytest.approx(expected, abs=1e-12)

    def test_thresholds_sit_on_the_optimal_level(self, example2_spec):
        design = solve(example2_spec)
        for h in design.thresholds:
            assert posterior(example2_spec, h) == pytest.approx(design.a_star, abs=1e-8)

    def test_uniqueness_from_five_brackets(self, example2_spec):
        brackets = [(1e-6, 1 - 1e-6), (0.05, 0.95), (0.1, 0.8), (0.2, 0.6), (0.25, 0.45)]
        results = [
            solve(example2_spec, SolverConfig(a_lo=lo, a_hi=hi)).a_star for lo, hi in brackets
        ]
        assert max(results) - min(results) <= 1e-8

    def test_determinism(self, example2_spec):
        assert solve(example2_spec) == solve(example2_spec)


class TestSolveAsymmetricPrior:
    def test_design(self, asym_spec):
        design = solve(asym_spec)
        assert design.a_star == pytest.approx(ASYM_A_STAR, abs=1e-8)
        np.testing.assert_allclose(design.thresholds, ASYM_THRESHOLDS, atol=1e-8)
        assert design.r_star == pytest.approx(ASYM_R_STAR, rel=1e-8)
        assert design.mi_bits == pytest.approx(ASYM_MI, abs=1e-10)
        assert design.stationarity_residual <= 1e-6


class TestSolveThreeBump:
    def test_design(self, fig5_spec):
        design = solve(fig5_spec)
        assert design.a_star == pytest.approx(FIG5_A_STAR, abs=1e-8)
        assert len(design.thresholds) == 6
        np.testing.assert_allclose(design.thresholds, FIG5_THRESHOLDS, atol=1e-6)
        assert design.mi_bits == pytest.approx(FIG5_MI, abs=1e-9)
        assert design.stationarity_residual <= 1e-6
        assert design.mapping == "even_to_zero"

    def test_all_thresholds_share_one_ratio(self, fig5_spec):
        design = solve(fig5_spec)
        residual, ratios = _equal_ratio_residual(fig5_spec, design)
        assert residual <= 1e-6
        assert max(ratios) - min(ratios) <= 1e-6 * design.r_star


class TestVerifyStationarity:
    """The equal-ratio condition, checked outside ``solve``."""

    def test_single_threshold_trivially_equal(self, example1_spec):
        design = solve(example1_spec)
        residual, ratios = _equal_ratio_residual(example1_spec, design)
        assert residual <= 1e-8
        assert len(ratios) == 1

    def test_two_thresholds_share_the_ratio(self, example2_spec):
        design = solve(example2_spec)
        residual, ratios = _equal_ratio_residual(example2_spec, design)
        assert residual <= 1e-6
        for ratio in ratios:
            assert ratio == pytest.approx(EX2_R_STAR, rel=1e-6)


class TestSearchBudget:
    """The bracketed secant search needs at most 12 F evaluations past the scan."""

    @pytest.mark.parametrize(
        "name, a_star",
        [("example2_spec", EX2_A_STAR), ("fig5_spec", FIG5_A_STAR), ("asym_spec", ASYM_A_STAR)],
    )
    def test_stationarity_calls(self, name, a_star, request, monkeypatch):
        spec = request.getfixturevalue(name)
        calls = []
        real = solver.stationarity
        monkeypatch.setattr(solver, "stationarity", lambda *args: calls.append(args) or real(*args))
        design = solve(spec)
        assert len(calls) <= solver.SCAN_POINTS + 12
        assert design.iterations == len(calls) - solver.SCAN_POINTS
        assert design.a_star == pytest.approx(a_star, abs=1e-8)


class TestErrors:
    def test_identical_densities_report_no_information(self, flat_spec):
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(flat_spec)

    def test_bracket_without_root_raises(self, example2_spec):
        # F < 0 on the whole admissible range above the optimum
        with pytest.raises(NoSignChangeError):
            solve(example2_spec, SolverConfig(a_lo=0.5, a_hi=0.7))

    def test_iteration_budget_enforced(self, example2_spec):
        with pytest.raises(NotConvergedError):
            solve(example2_spec, SolverConfig(max_iter=3))

    def test_config_validation(self):
        with pytest.raises(Exception):
            SolverConfig(a_lo=0.9, a_hi=0.1)
        with pytest.raises(Exception):
            SolverConfig(tol_a=0.0)


class TestPredictions:
    def test_monotone_ratio_predicts_single_threshold(self, example1_spec):
        assert predict_single_threshold(example1_spec)
        assert len(solve(example1_spec).thresholds) == 1

    def test_unequal_variance_predicts_multiple(self, example2_spec):
        assert not predict_single_threshold(example2_spec)
        assert len(solve(example2_spec).thresholds) == 2

    def test_three_bump_predicts_multiple(self, fig5_spec):
        assert not predict_single_threshold(fig5_spec)


class TestOptimalityAgainstOracle:
    def test_never_below_the_grid_best(self, example1_spec, example2_spec, asym_spec):
        cases = [(example1_spec, 1, 0.01), (example2_spec, 2, 0.02), (asym_spec, 2, 0.02)]
        for spec, n, step in cases:
            design = solve(spec)
            assert len(design.thresholds) == n
            oracle = grid_search(spec, n, step)
            assert design.mi_bits >= oracle.best_mi_bits - 1e-4
