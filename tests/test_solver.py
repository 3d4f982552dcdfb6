"""End-to-end solver: the bracketed level search, design assembly, and the equal-ratio certificate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from binquant import (
    DegenerateChannelError,
    DensityModel,
    GaussianComponent,
    InvalidSpecError,
    NoSignChangeError,
    NotConvergedError,
    Prior,
    SolverConfig,
    channel_spec,
    grid_search,
    likelihood_ratio,
    posterior,
    predict_single_threshold,
    solve,
    structural_checks,
    sweep_levels,
)
from binquant import channel, solver
from binquant.cli import load_config
from tests.conftest import CONFIG_DIR, single_gaussian

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


    @pytest.mark.parametrize("config", [SolverConfig(a_hi=0.5), SolverConfig(a_lo=0.5)])
    def test_exact_zero_at_a_bracket_end_takes_no_step(self, example1_spec, config):
        # the range edge 0.5 is a* itself, where F is exactly 0 by symmetry
        design = solve(example1_spec, config)
        assert design.a_star == 0.5
        assert design.iterations == 0


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
    """Two bracket ends plus the search steps: at most 8 F evaluations per solve."""

    @pytest.mark.parametrize(
        "name, a_star",
        [("example2_spec", EX2_A_STAR), ("fig5_spec", FIG5_A_STAR), ("asym_spec", ASYM_A_STAR)],
    )
    def test_stationarity_calls(self, name, a_star, request, monkeypatch):
        design, calls = self._solve_counting_f(request.getfixturevalue(name), monkeypatch)
        # one bracket: its two ends and four inverse-quadratic steps
        assert len(calls) == 6
        assert design.iterations == len(calls) - 2
        assert design.a_star == pytest.approx(a_star, abs=1e-8)

    def test_a_jagged_top_costs_one_bracket(self, monkeypatch):
        # near-separable: the prefix MI stays within 3e-4 bits of its top at
        # every level, and every other cell adds no mass, so the curve is a
        # staircase with 155 flat local maxima
        spec = channel_spec(Prior(p0=0.48), single_gaussian(3.7, 0.7), single_gaussian(-1.6, 0.2))
        design, calls = self._solve_counting_f(spec, monkeypatch)
        assert len(calls) <= 8
        assert design.mi_bits == pytest.approx(0.998845487, abs=1e-9)

    @staticmethod
    def _solve_counting_f(spec, monkeypatch):
        calls = []
        real = solver.stationarity
        monkeypatch.setattr(solver, "stationarity", lambda *args: calls.append(args) or real(*args))
        return solve(spec), calls


def _recording(fn, points):
    """``fn`` appending each point it is called at to ``points``."""
    return lambda x: points.append(x) or fn(x)


def _cubic(x):
    return (x - 0.3) ** 3 + 0.01 * (x - 0.3)


class TestChandrupatla:
    """The level search of one bracket, :func:`solver._chandrupatla`."""

    def test_a_lines_zero_is_found_in_one_step(self):
        # the first, secant, point of a line is its zero
        fn = lambda x: x - 0.25
        assert solver._chandrupatla(fn, 0.0, 1.0, fn(0.0), fn(1.0), 1e-3, 200) == (0.25, 1)

    @pytest.mark.parametrize("lo, hi", [(0.25, 1.0), (0.0, 0.25)])
    def test_exact_zero_at_an_end_takes_no_step(self, lo, hi):
        fn = lambda x: x - 0.25
        points = []
        assert solver._chandrupatla(_recording(fn, points), lo, hi, fn(lo), fn(hi), 1e-10, 200) == (0.25, 0)
        assert points == []

    @pytest.mark.parametrize(
        "fn, lo, hi, xtol",
        [
            (lambda x: x - 1e-15, 0.0, 1.0, 1e-6),  # the zero hugs the lower end
            (lambda x: 1.0 - 1e-15 - x, 0.0, 1.0, 1e-6),  # ... and the upper end
            (_cubic, -2.0, 1.0, 1e-10),
            (lambda x: np.tanh(50.0 * (x - 0.7)), -2.0, 1.0, 1e-12),
            (lambda x: np.sign(x - 0.3) + x - 0.3, 0.0, 1.0, 1e-10),  # a jump across zero
        ],
    )
    def test_every_point_stays_a_quarter_tolerance_inside(self, fn, lo, hi, xtol):
        points = []
        level, steps = solver._chandrupatla(_recording(fn, points), lo, hi, fn(lo), fn(hi), xtol, 200)
        assert len(points) == steps > 0
        f_lo = fn(lo)
        for x in points:
            assert lo + 0.25 * xtol <= x <= hi - 0.25 * xtol
            if fn(x) == 0.0:
                lo = hi = x  # an exact zero is the root: no point may follow it
            elif (fn(x) > 0.0) == (f_lo > 0.0):
                lo = x
            else:
                hi = x
        # the search returns the last point it evaluated, an end of a bracket at most xtol wide
        assert level == points[-1] and level in (lo, hi)
        assert hi - lo <= xtol

    def test_exhausted_budget_raises(self):
        with pytest.raises(NotConvergedError):
            solver._chandrupatla(_cubic, -2.0, 1.0, _cubic(-2.0), _cubic(1.0), 1e-12, 3)

    def test_the_design_is_read_from_the_last_level_evaluated(self, fig5_spec, monkeypatch):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        levels, level_sets = [], []
        real_f, real_set = solver.stationarity, channel.find_level_set
        monkeypatch.setattr(solver, "stationarity", lambda s, a, n: levels.append(a) or real_f(s, a, n))
        monkeypatch.setattr(channel, "find_level_set", lambda *args: level_sets.append(args) or real_set(*args))
        design = solve(spec)
        # one level set per F evaluation, and none more for the design
        assert design.a_star == levels[-1]
        assert len(level_sets) == len(levels)


class TestTwoPeakMixture:
    """F has two + to - zeros; the higher MI peak is the optimum."""

    @pytest.fixture(scope="class")
    def spec(self):
        return load_config(str(CONFIG_DIR / "mixture_two_peaks.json"))[0]

    def test_solve_finds_the_higher_peak(self, spec):
        design = solve(spec)
        assert design.mi_bits >= 0.38662
        assert design.a_star == pytest.approx(0.69730, abs=1e-4)

    def test_the_higher_of_two_brackets_wins(self, spec, monkeypatch):
        # one candidate at each + to - zero of F, the lower peak's first
        monkeypatch.setattr(solver, "_candidate_levels", lambda spec, cfg: np.array([0.07, 0.7]))
        design = solve(spec)
        assert design.mi_bits >= 0.38662
        assert design.a_star == pytest.approx(0.69730, abs=1e-4)

    def test_a_range_below_the_higher_peak_gives_the_lower_one(self, spec):
        design = solve(spec, SolverConfig(a_hi=0.15))
        assert design.a_star == pytest.approx(0.06264, abs=1e-4)
        assert design.mi_bits == pytest.approx(0.0518924, abs=1e-6)

    def test_structural_checks_count_the_crossings(self, spec):
        # F on 0.05, 0.10, ..., 0.95 changes sign three times: + to - in
        # (0.05, 0.10), - to + in (0.15, 0.20), where two roots join the level
        # set, and + to - in (0.65, 0.70); every structural check holds
        rows = [row for row in sweep_levels(spec, np.linspace(0.05, 0.95, 19)) if not row.degenerate]
        signs = np.sign([row.stationarity_value for row in rows])
        changes = np.flatnonzero(signs[1:] != signs[:-1])
        assert [rows[i].level for i in changes] == pytest.approx([0.05, 0.15, 0.65])
        assert [rows[i + 1].level for i in changes] == pytest.approx([0.10, 0.20, 0.70])
        assert signs[changes].tolist() == [1.0, -1.0, 1.0]
        assert all(check.passed for check in structural_checks(spec).values())


def _cell_bound_bits(p0, comps0, comps1, cells=2**16):
    """Best MI of a union of ``cells`` cells, from scipy's normal CDF alone.

    The cells cover the line; sorted by their mass ratio, every prefix is a
    quantizer, so the best prefix is a lower bound on the optimal MI.
    """
    comps = comps0 + comps1
    smax = max(s for _, s, _ in comps)
    lo = min(m for m, _, _ in comps) - 12.0 * smax
    hi = max(m for m, _, _ in comps) + 12.0 * smax
    edges = np.concatenate(([-np.inf], np.linspace(lo, hi, cells - 1), [np.inf]))

    def masses(mixture):
        return np.diff(sum(w * ndtr((edges - m) / s) for m, s, w in mixture))

    m0, m1 = masses(comps0), masses(comps1)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.argsort(-np.nan_to_num(np.log(m0) - np.log(m1), nan=0.0), kind="stable")
    a11 = np.clip(np.cumsum(m0[order]), 0.0, 1.0)
    a22 = np.clip(1.0 - np.cumsum(m1[order]), 0.0, 1.0)

    def h2(w):
        inside = (w > 0.0) & (w < 1.0)
        v = np.where(inside, w, 0.5)
        return np.where(inside, -(v * np.log2(v) + (1.0 - v) * np.log2(1.0 - v)), 0.0)

    q0 = p0 * a11 + (1.0 - p0) * (1.0 - a22)
    mi = h2(q0) - p0 * h2(a11) - (1.0 - p0) * h2(a22)
    k = int(np.argmax(mi))
    return float(mi[k]), 1.0 - a11[k], 1.0 - a22[k]


def _normalized(comps):
    total = sum(w for _, _, w in comps)
    return [(m, s, w / total) for m, s, w in comps]


_MIXTURE = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 3.0), st.floats(0.1, 1.0)),
    min_size=1,
    max_size=3,
).map(_normalized)


class TestGlobalOptimum:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(p0=st.floats(0.2, 0.8), comps0=_MIXTURE, comps1=_MIXTURE)
    def test_never_below_a_sorted_cell_bound(self, p0, comps0, comps1):
        assume(comps0 != comps1)  # identical densities: TestErrors
        density0, density1 = (
            DensityModel(tuple(GaussianComponent(*c) for c in comps)) for comps in (comps0, comps1)
        )
        bound, err0, err1 = _cell_bound_bits(p0, comps0, comps1)
        try:
            design = solve(channel_spec(Prior(p0=p0), density0, density1))
        except NoSignChangeError:
            assert bound <= 1e-9  # only a channel that carries no information
            return
        except DegenerateChannelError:
            # only a channel whose best cell quantizer is almost error-free
            assert min(err0, err1) <= 1e-9
            return
        assert design.mi_bits >= bound - 1e-9


class TestErrors:
    def test_identical_densities_report_no_information(self, flat_spec):
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(flat_spec)

    def test_bracket_without_root_raises(self, example2_spec):
        # F < 0 on the whole admissible range above the optimum
        with pytest.raises(NoSignChangeError):
            solve(example2_spec, SolverConfig(a_lo=0.5, a_hi=0.7))

    def test_separated_densities_are_degenerate(self):
        spec = channel_spec(Prior(p0=0.5), single_gaussian(-10.0, 1.0), single_gaussian(10.0, 1.0))
        with pytest.raises(DegenerateChannelError):
            solve(spec)

    def test_iteration_budget_enforced(self, example2_spec):
        with pytest.raises(NotConvergedError):
            solve(example2_spec, SolverConfig(max_iter=3))

    def test_config_validation(self):
        with pytest.raises(Exception):
            SolverConfig(a_lo=0.9, a_hi=0.1)
        with pytest.raises(Exception):
            SolverConfig(tol_a=0.0)
        for tol_a in (float("inf"), float("nan")):
            with pytest.raises(InvalidSpecError, match="tol_a"):
                SolverConfig(tol_a=tol_a)


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
