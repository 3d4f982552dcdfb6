"""End-to-end solver: the level search, design assembly, and the equal-ratio certificate."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from binquant import (
    ChannelMatrix,
    DegenerateChannelError,
    DensityModel,
    GaussianComponent,
    InvalidSpecError,
    NoSignChangeError,
    NotConvergedError,
    Prior,
    SolverConfig,
    channel_spec,
    classify_monotonicity,
    find_level_set,
    grid_search,
    level_functionals,
    likelihood_ratio,
    mutual_information,
    posterior,
    predict_single_threshold,
    solve,
    stationarity,
    structural_checks,
    sweep_levels,
)
from binquant import likelihood, solver
from binquant.cli import load_config
from tests.conftest import CONFIG_DIR, far_narrow_pair, fresh_copy, gaussian_pairs, log_uniform, single_gaussian

SHIPPED_AND_VERIFY_CONFIGS = sorted(CONFIG_DIR.glob("*.json")) + sorted(
    (Path(__file__).resolve().parent / "data" / "verify").glob("*.json")
)

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
        # F(0.5) is exactly 0 by symmetry, but the scan vertex is 0.5 only up
        # to rounding: round 0 brackets it within 1e-4, one round narrows it
        assert design.a_star == pytest.approx(0.5, abs=SolverConfig().tol_a)
        assert design.iterations == 1


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

    def test_design_equals_a_30_digit_reference(self, fig5_spec):
        comps0 = [(0.0, math.sqrt(0.3), 0.3), (-3.0, math.sqrt(0.2), 0.4), (3.0, math.sqrt(0.1), 0.3)]
        ys = np.linspace(-40.0, 40.0, 80_001)
        a_star, thresholds, mi = _mpmath_optimum(0.5, comps0, [(-2.0, 3.0, 1.0)], ys, 0.655, 0.657)
        design = solve(fig5_spec)
        assert design.a_star == pytest.approx(a_star, abs=1e-8)
        assert len(design.thresholds) == len(thresholds) == 6
        np.testing.assert_allclose(design.thresholds, thresholds, rtol=0.0, atol=1e-7)
        assert design.mi_bits == pytest.approx(mi, abs=1e-9)
        assert mi == pytest.approx(0.2301662756, abs=1e-10)

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
    """Round 0 plus one narrowing round: at most 2 F batches per solve on the shipped channels."""

    @pytest.mark.parametrize(
        "name, a_star",
        [("example2_spec", EX2_A_STAR), ("fig5_spec", FIG5_A_STAR), ("asym_spec", ASYM_A_STAR)],
    )
    def test_stationarity_calls(self, name, a_star, request, monkeypatch):
        design, calls = self._solve_counting_f(request.getfixturevalue(name), monkeypatch)
        # one bracket next to the scan vertex from round 0, then one narrowing round
        assert len(calls) <= 2
        assert design.iterations == len(calls) - 1
        assert design.a_star == pytest.approx(a_star, abs=1e-8)

    def test_a_jagged_top_costs_one_bracket(self, monkeypatch):
        # near-separable: the prefix MI stays within 3e-4 bits of its top at
        # every level, and every other cell adds no mass, so the curve is a
        # staircase with 155 flat local maxima
        spec = channel_spec(Prior(p0=0.48), single_gaussian(3.7, 0.7), single_gaussian(-1.6, 0.2))
        design, calls = self._solve_counting_f(spec, monkeypatch)
        assert len(calls) <= 5
        assert design.mi_bits == pytest.approx(0.998845487, abs=1e-9)

    @pytest.mark.parametrize("path", SHIPPED_AND_VERIFY_CONFIGS, ids=lambda path: path.stem)
    def test_iterations_count_the_rounds_after_round_0(self, path, monkeypatch):
        spec, cfg = load_config(str(path))
        design, calls = self._solve_counting_f(spec, monkeypatch, cfg)
        assert design.iterations == len(calls) - 1
        assert len(calls) <= 2
        # one scan vertex, whose round 0 asks for v - d, v and v + d
        assert solver._candidate_levels(spec, cfg)[0].size == 1
        assert calls[0][1].size == 3

    @staticmethod
    def _solve_counting_f(spec, monkeypatch, config=None):
        calls = []
        real = solver.stationarity
        monkeypatch.setattr(solver, "stationarity", lambda *args: calls.append(args) or real(*args))
        return solve(spec, config), calls


def _recording(fn, rounds):
    """A batch form of the scalar ``fn`` that appends the levels of each call to ``rounds``."""
    return lambda levels: rounds.append(levels.tolist()) or np.array([fn(x) for x in levels])


def _cubic(x):
    return (x - 0.3) ** 3 + 0.01 * (x - 0.3)


def _searched(fn, vertices, a_lo, a_hi, xtol=1e-10, max_rounds=200, rounds=None):
    """The outcomes of one :func:`solver._candidate_search` per scan vertex, in turn, and the calls of ``fn`` - 1.

    F is ``fn``; ``rounds`` gets the levels of each of its calls.
    """
    rounds = [] if rounds is None else rounds
    f_at = _recording(fn, rounds)
    return [solver._candidate_search(f_at, v, a_lo, a_hi, xtol, max_rounds) for v in vertices], len(rounds) - 1


class TestBatchedSearch:
    """Level search: :func:`solver._candidate_search` from one scan vertex, each round one F batch."""

    def test_a_lines_zero_is_found_in_one_round(self):
        # round 0 brackets the zero in [0.24995, 0.25005]; the first narrowing point of a line is its zero
        fn, rounds = lambda x: 0.25 - x, []
        assert _searched(fn, [0.25005], 0.0, 1.0, 1e-5, rounds=rounds) == ([("level", 0.25)], 1)
        assert [len(levels) for levels in rounds] == [3, 3]

    def test_a_zero_next_to_the_vertex_closes_in_one_narrowing_round(self):
        # the zero 0.7 lies within d of the vertex 0.69995
        fn, d, rounds = (lambda x: np.expm1(0.7 - x)), solver._VERTEX_HALF_WIDTH, []
        [(kind, level)], n_rounds = _searched(fn, [0.69995], 0.0, 1.0, rounds=rounds)
        assert kind == "level" and level == pytest.approx(0.7, abs=1e-10) and n_rounds == 1
        # round 0 is v - d, v and v + d; the one narrowing round lies inside [v, v + d], where F falls from + to -
        assert rounds[0] == [0.69995 - d, 0.69995, 0.69995 + d]
        assert [len(levels) for levels in rounds] == [3, 3]
        assert all(0.69995 < x < 0.69995 + d for x in rounds[1])

    @pytest.mark.parametrize(
        "vertex, walk, sizes",
        [
            (0.68, 4, [3, 1, 1, 1, 1, 2]),
            (0.6805, 4, [3, 1, 1, 1, 1, 3, 3, 3]),
            (0.6795, 5, [3, 1, 1, 1, 1, 1, 3, 3, 3]),
        ],
        ids=["0.68", "0.6805", "0.6795"],
    )
    def test_a_vertex_that_misses_walks_out_from_it(self, vertex, walk, sizes):
        # no sign change of F within d of the vertex: the upper end moves out
        # to v + w, v + 2w, v + 4w, ... (w the scan's largest spacing) until
        # it passes 0.70, then narrows; from 0.68 the walk ends within
        # rounding of 0.70 and one round of two levels closes the bracket,
        # from the others three rounds narrow it
        fn, rounds = (lambda x: np.tanh(50.0 * (0.7 - x))), []
        w, d = 0.25 * solver.BRACKET_HALF_WIDTH, solver._VERTEX_HALF_WIDTH
        [(kind, level)], n_rounds = _searched(fn, [vertex], 0.0, 1.0, rounds=rounds)
        assert kind == "level" and level == pytest.approx(0.7, abs=1e-10) and n_rounds == len(sizes) - 1
        assert [len(levels) for levels in rounds] == sizes
        assert rounds[0] == [vertex - d, vertex, vertex + d]
        assert rounds[1 : walk + 1] == [[vertex + 2**k * w] for k in range(walk)]
        assert all(vertex + 2 ** (walk - 2) * w < x < vertex + 2 ** (walk - 1) * w for x in rounds[walk + 1])

    def test_the_walk_steps_at_the_scans_spacing(self):
        # F falls from + to - at 0.503 and 0.509 and rises at 0.506: the walk
        # up from 0.5 takes 0.5025, then 0.505, whose bracket holds 0.503
        # alone (a first step of 0.01 brackets all three zeros, and narrows
        # onto 0.509)
        fn, w, rounds = (lambda x: -(x - 0.503) * (x - 0.506) * (x - 0.509)), 0.25 * solver.BRACKET_HALF_WIDTH, []
        [(kind, level)], _ = _searched(fn, [0.5], 0.0, 1.0, rounds=rounds)
        assert rounds[1:3] == [[0.5 + w], [0.5 + 2.0 * w]]
        assert kind == "level" and level == pytest.approx(0.503, abs=1e-10)

    @pytest.mark.parametrize(
        "steps, walk_rounds",
        [
            (0.0, 0),
            (solver._VERTEX_HALF_WIDTH, 0),
            (-solver._VERTEX_HALF_WIDTH, 0),
            (-0.25 * solver.BRACKET_HALF_WIDTH, 1),
            (-0.5 * solver.BRACKET_HALF_WIDTH, 2),
        ],
        ids=["v", "v+d", "v-d", "v-w", "v-2w"],
    )
    def test_exact_zero_at_an_end_takes_no_round(self, steps, walk_rounds):
        # F is exactly 0 at v, at v + d, at v - d (round 0) or at v - w or v - 2w (the walk's first levels)
        v = 0.5
        zero = v + steps
        fn, rounds = lambda x: zero - x, []
        assert _searched(fn, [v], 0.0, 1.0, rounds=rounds) == ([("level", zero)], walk_rounds)
        assert [len(levels) for levels in rounds] == [3] + [1] * walk_rounds

    @pytest.mark.parametrize(
        "fn, c, a_lo, a_hi, xtol",
        [
            (lambda x: 1e-15 - x, 0.95, 0.0, 1.0, 1e-6),  # the walk ends at 0, where the zero hugs the end
            (lambda x: 1.0 - 1e-15 - x, 0.05, 0.0, 1.0, 1e-6),  # ... and at 1
            (lambda x: -_cubic(x), 0.95, -2.0, 1.0, 1e-10),
            (lambda x: -np.tanh(50.0 * (x - 0.7)), -1.9, -2.0, 1.0, 1e-12),
            (lambda x: -(np.sign(x - 0.3) + x - 0.3), 0.95, 0.0, 1.0, 1e-10),  # a jump across zero
        ],
        ids=["hugs-lower-end", "hugs-upper-end", "cubic", "tanh", "jump"],
    )
    def test_every_level_stays_a_quarter_tolerance_inside(self, fn, c, a_lo, a_hi, xtol):
        rounds = []
        [(kind, level)], n_rounds = _searched(fn, [c], a_lo, a_hi, xtol, rounds=rounds)
        assert kind == "level" and len(rounds) == n_rounds + 1
        seen, bracket, narrowing = [], None, 0
        for levels in rounds:
            if bracket is not None:
                narrowing += 1
                lo, hi = bracket
                for x in levels:
                    assert lo + 0.25 * xtol <= x <= hi - 0.25 * xtol
            # once F falls from + to - between two adjacent levels evaluated, they bracket the zero
            seen = sorted(seen + levels)
            j = next((j for j, x in enumerate(seen) if fn(x) <= 0.0), 0)
            if j:
                bracket = (seen[j], seen[j]) if fn(seen[j]) == 0.0 else (seen[j - 1], seen[j])
        lo, hi = bracket
        # the search returns an end of a bracket at most xtol wide, evaluated in the last round
        assert narrowing > 0 and level in (lo, hi) and level in rounds[-1]
        assert hi - lo <= xtol

    def test_brackets_narrowed_together_equal_each_alone(self):
        cases = [
            (lambda x: -_cubic(x), 0.95, -2.0, 1.0),
            (lambda x: np.tanh(50.0 * (0.7 - x)), -1.9, -2.0, 1.0),
            (lambda x: 1e-15 - x, 0.95, 0.0, 1.0),
        ]
        alone = [_searched(fn, [c], a_lo, a_hi) for fn, c, a_lo, a_hi in cases]
        # the three functions moved 0, 10 and 20 apart into one F: the nearest multiple of 10 picks one
        offsets = [0.0, 10.0, 20.0]
        shifted = _recording(lambda x: cases[round(x / 10.0)][0](x - 10.0 * round(x / 10.0)), [])
        moved = [(c + d, a_lo + d, a_hi + d) for d, (_, c, a_lo, a_hi) in zip(offsets, cases)]
        outcomes = [solver._candidate_search(shifted, v, a_lo, a_hi, 1e-10, 200) for v, a_lo, a_hi in moved]
        assert [kind for kind, _ in outcomes] == ["level"] * 3
        assert [a - d for d, (_, a) in zip(offsets, outcomes)] == pytest.approx(
            [a for ((_, a),), _ in alone], abs=1e-9
        )

    def test_exhausted_budget_raises(self):
        with pytest.raises(NotConvergedError, match="all 3 rounds"):
            _searched(lambda x: -_cubic(x), [0.95], -2.0, 1.0, 1e-12, 3)

    def test_ends_that_do_not_bracket_move_out(self):
        # the zero 0.25 lies below both vertices; 0.95's walk reaches the range's edge 0 first
        fn, d, xtol = (lambda x: (0.25 - x) * (1.0 + x)), solver._VERTEX_HALF_WIDTH, 1e-10
        w = 0.25 * solver.BRACKET_HALF_WIDTH
        for v, walk in ((0.5, 8), (0.95, 10)):
            log = []
            assert _searched(fn, [v], 0.0, 1.0, xtol, rounds=log)[0] == [("level", pytest.approx(0.25, abs=1e-10))]
            # round 0, then the lower end moves out to v - w, v - 2w, v - 4w, ..., one level a round
            assert log[0] == [v - d, v, v + d]
            assert log[1 : walk + 1] == [[max(v - 2**k * w, 0.0)] for k in range(walk)]
            # the bracket: x1 the walk's level before the last, x2 the last, x3 the one before x1
            x1, x2, x3 = log[walk - 1][0], log[walk][0], log[walk - 2][0]
            assert fn(x1) < 0.0 < fn(x2)
            x = x1 + solver._chandrupatla_t(x1, fn(x1), x2, fn(x2), x3, fn(x3)) * (x2 - x1)
            assert log[walk + 1] == [x - 0.5 * xtol, x, x + 0.5 * xtol]

    def test_a_walk_that_reaches_the_edge_gives_the_edge(self):
        # the upper end moves out to 0.5025, 0.505, 0.51, ..., 0.82 and then the edge 1
        assert _searched(lambda x: 2.0 - x, [0.5], 0.0, 1.0) == ([("edge", 1.0)], 9)

    def test_a_nan_on_the_side_the_walk_leaves_keeps_the_search(self):
        # F(0.20005) > 0 sends the search up; F at 0.19995, below it, is NaN and unused
        fn = lambda x: np.where(x < 0.2, np.nan, 0.25 - x)
        outcomes, _ = _searched(fn, [0.20005], 0.0, 1.0)
        assert outcomes == [("level", pytest.approx(0.25, abs=1e-10))]

    def test_a_walk_into_nan_bisects_back_to_the_sign_change(self):
        # F(0.205) < 0 sends the search down past 0.2025 to 0.2 - 3e-17, where
        # F is NaN; bisecting from 0.2025 finds F > 0
        fn = lambda x: np.where(x < 0.2, np.nan, 0.2005 - x)
        outcomes, _ = _searched(fn, [0.205], 0.0, 1.0)
        assert outcomes == [("level", pytest.approx(0.2005, abs=1e-10))]

    def test_a_nan_at_a_vertex_drops_it(self):
        # NaN below 0.2 and F < 0 above it: 0.1 is dropped in round 0 at its
        # lowest NaN level; 0.205 (once its lower end reaches 0.2 - 3e-17, in
        # 2 walk rounds) and 0.3 (once it reaches 0.14, in 7) bisect toward
        # the NaN until the last level with F < 0 is within xtol of it, in 25
        # and 30 rounds
        fn = lambda x: np.where(x < 0.2, np.nan, 0.15 - x)
        searched = [_searched(fn, [v], 0.0, 1.0) for v in (0.1, 0.205, 0.3)]
        outcomes = [outcome for [outcome], _ in searched]
        assert [kind for kind, _ in outcomes] == ["nan"] * 3
        assert [n_rounds for _, n_rounds in searched] == [0, 27, 37]
        assert outcomes[0][1] == pytest.approx(0.1 - solver._VERTEX_HALF_WIDTH)
        for _, a in outcomes[1:]:
            assert 0.2 - 1e-10 <= a < 0.2 and np.isnan(fn(a))

    def test_the_design_is_read_from_the_last_level_batch(self, fig5_spec, monkeypatch):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        levels, batches = [], []
        real_f, real_roots = solver.stationarity, likelihood._level_roots
        monkeypatch.setattr(solver, "stationarity", lambda s, a, n: levels.append(a) or real_f(s, a, n))
        # the level scan binds its own _level_roots, so this counts the roots of level functionals only
        monkeypatch.setattr(likelihood, "_level_roots", lambda *args: batches.append(args) or real_roots(*args))
        design = solve(spec)
        # one root computation per F batch, and none more for the design
        assert design.a_star in levels[-1].tolist()
        assert len(batches) == len(levels)


def _mpmath_optimum(p0, comps0, comps1, ys, a_lo, a_hi):
    """a*, the thresholds and the MI in bits of a Gaussian-mixture channel, at 30 digits.

    Shares no code with binquant.  ``comps0``/``comps1`` are the
    ``(mean, stddev, weight)`` components of each density.  The roots of
    u(y) = a are bracketed by a float scan of the log-likelihood ratio on
    the points ``ys``, which must be fine enough that no two roots share a
    cell, and polished by ``mpmath.findroot``; each segment between roots
    goes to Z = 0 where u < a at a point inside it, and a* is the zero of F
    in [a_lo, a_hi].
    """
    mp = mpmath.mp

    def log_density(comps, y):
        return np.logaddexp.reduce(
            [np.log(w / (s * math.sqrt(2.0 * math.pi))) - 0.5 * ((y - m) / s) ** 2 for m, s, w in comps], axis=0
        )

    # u > a exactly where log_r > log(a p0 / ((1 - a) p1))
    log_r = log_density(comps1, ys) - log_density(comps0, ys)

    with mpmath.workdps(30):
        p0 = mp.mpf(p0)
        p1 = 1 - p0

        def u(y):
            d0 = sum(w * mpmath.npdf(y, m, s) for m, s, w in comps0)
            d1 = sum(w * mpmath.npdf(y, m, s) for m, s, w in comps1)
            return p1 * d1 / (p0 * d0 + p1 * d1)

        def design(a):
            side = log_r > float(mpmath.log(a * p0 / ((1 - a) * p1)))
            cells = np.flatnonzero(side[1:] != side[:-1])
            roots = [mpmath.findroot(lambda y: u(y) - a, (ys[i], ys[i + 1]), solver="anderson") for i in cells]
            edges = [-mp.inf, *roots, mp.inf]
            f = g = mp.zero
            for lo, hi in zip(edges, edges[1:]):
                inside = hi - 1 if lo == -mp.inf else lo + 1 if hi == mp.inf else (lo + hi) / 2
                if u(inside) < a:
                    f += sum(w * (mpmath.ncdf(hi, m, s) - mpmath.ncdf(lo, m, s)) for m, s, w in comps0)
                else:
                    g += sum(w * (mpmath.ncdf(hi, m, s) - mpmath.ncdf(lo, m, s)) for m, s, w in comps1)
            return roots, f, g

        def stationarity_value(a):
            _, f, g = design(a)
            q0, q1 = p0 * f + p1 * (1 - g), p0 * (1 - f) + p1 * g
            return mpmath.log(f / (1 - f)) - a / (1 - a) * mpmath.log(g / (1 - g)) - mpmath.log(q0 / q1) / (1 - a)

        def h2(w):
            return -(w * mpmath.log(w, 2) + (1 - w) * mpmath.log(1 - w, 2))

        a_star = mpmath.findroot(stationarity_value, (mp.mpf(a_lo), mp.mpf(a_hi)), solver="anderson")
        roots, f, g = design(a_star)
        mi = h2(p0 * f + p1 * (1 - g)) - p0 * h2(f) - p1 * h2(g)
        return float(a_star), [float(h) for h in roots], float(mi)


def test_a_far_narrow_component_meets_a_30_digit_reference():
    # with log r expanded in y itself, its level sets were the same at every
    # level, and solve raised DegenerateChannelError
    spec = far_narrow_pair()
    (c0,), (c1,) = spec.density0.components, spec.density1.components
    spike = np.linspace(c1.mean - 2e-6, c1.mean + 2e-6, 401)
    ys = np.union1d(np.linspace(spec.search_lo, spec.search_hi, 1001), spike)
    comps0, comps1 = [(c0.mean, c0.stddev, 1.0)], [(c1.mean, c1.stddev, 1.0)]
    a_star, thresholds, mi = _mpmath_optimum(spec.prior.p0, comps0, comps1, ys, 0.44, 0.45)
    design = solve(spec)
    assert design.a_star == pytest.approx(a_star, abs=1e-8)
    np.testing.assert_allclose(design.thresholds, thresholds, rtol=0.0, atol=1e-13)
    assert design.mi_bits == pytest.approx(mi, abs=1e-12)


class TestTwoPeakMixture:
    """F has two + to - zeros; the higher MI peak is the optimum."""

    @pytest.fixture(scope="class")
    def spec(self):
        return load_config(str(CONFIG_DIR / "mixture_two_peaks.json"))[0]

    def test_solve_finds_the_higher_peak(self, spec):
        design = solve(spec)
        assert design.mi_bits >= 0.38662
        assert design.a_star == pytest.approx(0.69730, abs=1e-4)

    def test_design_equals_a_30_digit_reference(self, spec):
        # spacing 1e-3, and 1e-5 across the sigma = 3e-3 spike at 20
        ys = np.union1d(np.linspace(-60.0, 80.0, 140_001), np.linspace(19.9, 20.1, 20_001))
        comps0, comps1 = [(-1.0, 1.0, 0.9), (20.0, 0.003, 0.1)], [(0.0, 5.0, 1.0)]
        a_star, thresholds, mi = _mpmath_optimum(0.5, comps0, comps1, ys, 0.6970, 0.6976)
        design = solve(spec)
        assert design.a_star == pytest.approx(a_star, abs=1e-8)
        assert len(design.thresholds) == len(thresholds) == 4
        np.testing.assert_allclose(design.thresholds, thresholds, rtol=0.0, atol=1e-7)
        assert design.mi_bits == pytest.approx(mi, abs=1e-9)

    def test_the_higher_of_two_brackets_wins(self, spec, monkeypatch):
        # one candidate at each + to - zero of F, the lower peak's first
        real_levels, real_f = solver._candidate_levels, solver.stationarity

        def solve_from(vertices):
            calls = []
            patched = lambda s, cfg: (np.array(vertices), *real_levels(s, cfg)[1:])
            monkeypatch.setattr(solver, "_candidate_levels", patched)
            monkeypatch.setattr(solver, "stationarity", lambda *args: calls.append(args) or real_f(*args))
            return solve(spec), len(calls)

        design, calls = solve_from([0.07, 0.7])
        assert design.mi_bits >= 0.38662
        assert design.a_star == pytest.approx(0.69730, abs=1e-4)
        # the searches run in turn: each pays its own rounds
        assert design.iterations == calls - 1
        assert calls == solve_from([0.07])[1] + solve_from([0.7])[1]

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
    """Best MI of a union of about ``cells`` cells, from scipy's normal CDF alone.

    The cells cover the line; sorted by their mass ratio, every prefix is a
    quantizer, so the best prefix is a lower bound on the optimal MI.  The
    edges are uniform, plus 2001 over mean +- 12 stddevs of every component
    narrower than 16 uniform cells, so the bound resolves it too.
    """
    comps = comps0 + comps1
    smax = max(s for _, s, _ in comps)
    lo = min(m for m, _, _ in comps) - 12.0 * smax
    hi = max(m for m, _, _ in comps) + 12.0 * smax
    uniform = np.linspace(lo, hi, cells - 1)
    narrow = [np.linspace(m - 12.0 * s, m + 12.0 * s, 2001) for m, s, _ in comps if s < 16.0 * (uniform[1] - lo)]
    edges = np.concatenate(([-np.inf], np.unique(np.concatenate([uniform, *narrow])), [np.inf]))

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


#: A component's stddev: log-uniform on [3e-4, 3e-2] with probability 0.3, else uniform on [0.05, 3].
_NARROW_OR_WIDE = st.tuples(st.floats(0.0, 1.0), st.floats(math.log(3e-4), math.log(3e-2)), st.floats(0.05, 3.0)).map(
    lambda t: math.exp(t[1]) if t[0] < 0.3 else t[2]
)

_NARROW_MIXTURE = st.lists(
    st.tuples(st.floats(-4.0, 4.0), _NARROW_OR_WIDE, st.floats(0.1, 1.0)),
    min_size=1,
    max_size=3,
).map(_normalized)


def _mi_rounding_bits(p0, a11, a22):
    """A bound on the rounding error of ``_mi_bits(p0, a11, a22)`` against the exact MI of these masses, in bits.

    With u = 2^-53 the unit roundoff and log2 within one ulp (2u), each
    H2(w) = -(w log2 w + v log2 v) is computed within 6u: 3u |w log2 w| and
    3u |v log2 v| from the logs and the products, at most 2u from rounding
    v = 1 - w (its error u v times |log2 v| + 1/ln 2, with v |log2 v| <=
    0.531), and u from the sum, as H2 <= 1.  q0 = p0 a11 + p1 (1 - a22) is
    rounded within 4u q0, which H2 turns into 4u q0 |log2(q0 / (1 - q0))|.
    Scaling by p0 and by p1 = 1 - p0 (itself rounded) and the two
    subtractions, all of values at most 1, add 5u, and the clamp at 0 only
    moves a value closer.  In all 6u + 6u (p0 + p1) + 5u + 4u q0 |log2(q0 / (1 - q0))|.
    """
    q0 = p0 * a11 + (1.0 - p0) * (1.0 - a22)
    return (17.0 + 4.0 * q0 * abs(math.log2(q0 / (1.0 - q0)))) * 2.0**-53


def _stationarity_rounding(p0, fn):
    """A bound on the rounding error of F at ``fn.level`` against the exact F of its level set's masses.

    With u = 2^-53, each CDF value is within 8u of the exact mixture CDF at
    its root (ndtr within 2u; its argument, rounded within 2u |z|, moves it
    by at most 2u max z phi(z) < u; weighting and summing up to three
    components add 3u), and a mass is a signed sum of one value per root
    (and 1) rounded once, so f and g are within d = (8 k + 1) u for k
    roots.  F's partial derivatives, with p0 + p1 = 1, turn that into
    d (1/(f(1-f)) + r/(g(1-g)) + (1 + r)(1/q0 + 1/q1)), r = a/(1-a).
    Evaluating F adds 2u to the first log (its quotient is rounded twice),
    2u r to the second and 9u (1 + r) to the third (q0 and q1 within 4u
    each, their quotient u), plus u times each log for the log itself, 3u
    for r and 1 + r, and 2u for the two subtractions: in all at most
    (11 (1 + r) + 7 (|t1| + |t2| + |t3|)) u for the terms t of F.
    """
    a, f, g, u = fn.level, fn.correct0, fn.correct1, 2.0**-53
    r, q0, q1 = a / (1.0 - a), p0 * f + (1.0 - p0) * (1.0 - g), p0 * (1.0 - f) + (1.0 - p0) * g
    terms = (math.log(f / (1.0 - f)), r * math.log(g / (1.0 - g)), (1.0 + r) * math.log(q0 / q1))
    slopes = 1.0 / (f * (1.0 - f)) + r / (g * (1.0 - g)) + (1.0 + r) * (1.0 / q0 + 1.0 / q1)
    return ((8 * len(fn.roots) + 1) * slopes + 11.0 * (1.0 + r) + 7.0 * sum(map(abs, terms))) * u


def _assert_a_local_maximum(spec, design):
    """F falls through 0 at a*, and no level 1e-6 away carries more information, up to rounding.

    Whatever path the search took, it stopped on a + to - zero of F, a local
    maximum of I(X;Z).  One F batch holds all four levels, and their level
    sets give the rounding allowance of each sign (:func:`_stationarity_rounding`):
    on a channel within rounding of no information F is rounding noise.
    The MI at a* +- 1e-6 reads those level sets.  Next to a maximum the MI
    is flat to second order, so the two values may differ by rounding
    alone: the allowance is the rounding bound of both (:func:`_mi_rounding_bits`).
    """
    a, tol, p0 = design.a_star, SolverConfig().tol_a, spec.prior.p0
    levels = [a - tol, a + tol, a - 1e-6, a + 1e-6]
    values = stationarity(spec, np.array(levels))
    fns = [level_functionals(spec, level) for level in levels]
    slack = [_stationarity_rounding(p0, fn) for fn in fns]
    assert values[0] >= -slack[0] and values[1] <= slack[1]
    assert values[2] >= -slack[2] and values[3] <= slack[3]
    own = _mi_rounding_bits(p0, design.channel.a11, design.channel.a22)
    for fn in fns[2:]:
        mi = mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1))
        assert design.mi_bits >= mi - own - _mi_rounding_bits(p0, fn.correct0, fn.correct1)


def _assert_never_below_the_scan(spec, design):
    """The design carries at least the scan's best level set, up to 1e-12 bits.

    The scan's MI comes from unpolished roots, so it may lie above or below
    the exact MI of its best level's level set; the design beats the lower
    of the two.
    """
    _, level, scan_best = solver._candidate_levels(spec, SolverConfig())
    fn = level_functionals(spec, level)
    exact = mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1))
    assert design.mi_bits >= min(scan_best, exact) - 1e-12


class TestGlobalOptimum:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(p0=st.floats(0.2, 0.8), comps0=_MIXTURE, comps1=_MIXTURE)
    # peaks at a = 0.783 (4 roots) and 0.788 (6 roots): a first walk step
    # wider than the scan's spacing brackets both zeros of F
    @example(
        p0=0.21875,
        comps0=[(1.765625, 1.265625, 0.25625), (-2.0, 0.0625, 0.6), (-0.0625, 2.921875, 0.14375)],
        comps1=_normalized([(0.0, 2.76171875, 0.75), (2.140625, 1.0, 0.39453125), (-2.0, 0.0625, 0.9375)]),
    )
    def test_never_below_a_sorted_cell_bound(self, p0, comps0, comps1):
        assume(comps0 != comps1)  # identical densities: TestErrors
        density0, density1 = (
            DensityModel(tuple(GaussianComponent(*c) for c in comps)) for comps in (comps0, comps1)
        )
        bound, err0, err1 = _cell_bound_bits(p0, comps0, comps1)
        spec = channel_spec(Prior(p0=p0), density0, density1)
        calls = []
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "stationarity", lambda *args: calls.append(args) or stationarity(*args))
                design = solve(spec)
        except NoSignChangeError:
            assert bound <= 1e-9  # only a channel that carries no information
            return
        except DegenerateChannelError:
            # only a channel whose best cell quantizer is almost error-free
            assert min(err0, err1) <= 1e-9
            return
        assert design.mi_bits >= bound - 1e-9
        _assert_never_below_the_scan(spec, design)
        assert design.iterations == len(calls) - 1
        _assert_a_local_maximum(spec, design)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(p0=st.floats(0.2, 0.8), comps0=_NARROW_MIXTURE, comps1=_NARROW_MIXTURE)
    # 1.4e-12 bits, within rounding of no information: F at a* +- tol_a is rounding noise
    @example(p0=0.75, comps0=[(0.0, 2.5, 1.0)], comps1=[(1e-05, 2.5, 1.0)])
    def test_narrow_components_never_below_a_sorted_cell_bound(self, p0, comps0, comps1):
        # components far narrower than the search grid's uniform spacing
        assume(comps0 != comps1)
        density0, density1 = (
            DensityModel(tuple(GaussianComponent(*c) for c in comps)) for comps in (comps0, comps1)
        )
        bound, err0, err1 = _cell_bound_bits(p0, comps0, comps1)
        spec = channel_spec(Prior(p0=p0), density0, density1)
        try:
            design = solve(spec)
        except NoSignChangeError:
            assert bound <= 1e-9
        except DegenerateChannelError:
            assert min(err0, err1) <= 1e-9
        else:
            assert design.mi_bits >= bound - 1e-9
            _assert_never_below_the_scan(spec, design)
            _assert_a_local_maximum(spec, design)

    def test_never_below_its_own_scan(self):
        # the searched levels' best design has 3 thresholds and 0.158901 bits;
        # the scan's best level set, one threshold where F is NaN nearby,
        # carries 0.159386 bits, and no search reaches it
        p0 = 0.79286
        comps0 = [(-18.226, 1.6267, 0.5616), (14.939, 2.9526, 0.4384)]
        comps1 = [(-16.636, 0.24837, 0.1892), (-46.769, 1.7696, 0.3108), (-18.226, 1.6267, 0.5)]
        density0, density1 = (
            DensityModel(tuple(GaussianComponent(*c) for c in comps)) for comps in (comps0, comps1)
        )
        spec = channel_spec(Prior(p0=p0), density0, density1)
        bound, _, _ = _cell_bound_bits(p0, comps0, comps1)
        design = solve(spec)
        assert design.mi_bits >= bound - 1e-9
        _assert_never_below_the_scan(spec, design)
        assert design.a_star == solver._candidate_levels(spec, SolverConfig())[1]


def _dense_level_scan(spec, levels):
    """MI in bits of the quantizer {u < a} of a single-Gaussian pair at each level a.

    The test's own closed form: u < a exactly where log r(y) - t(a) =
    a2 y^2 + a1 y + a0 > 0, with t(a) = log(p1/p0) + log((1 - a)/a), a set
    of at most two intervals whose ends are the roots of that quadratic
    (q / a2 and a0 / q, q = -(a1 + sign(a1) sqrt(a1^2 - 4 a2 a0)) / 2),
    and scipy's ``ndtr`` gives each density's mass on it.  Masses are over
    the whole line, not the search window.
    """
    (c0,), (c1,) = spec.density0.components, spec.density1.components
    p0 = spec.prior.p0
    a2 = 0.5 / c1.stddev**2 - 0.5 / c0.stddev**2
    a1 = c0.mean / c0.stddev**2 - c1.mean / c1.stddev**2
    a0 = (
        0.5 * c1.mean**2 / c1.stddev**2 - 0.5 * c0.mean**2 / c0.stddev**2 + math.log(c1.stddev / c0.stddev)
        - math.log((1.0 - p0) / p0) - np.log((1.0 - levels) / levels)
    )

    def mass(c):
        if a2 == 0.0:
            if a1 == 0.0:
                return (a0 > 0.0).astype(float)
            # above -a0 / a1 when a1 > 0, below it when a1 < 0
            return ndtr(math.copysign(1.0, a1) * (c.mean + a0 / a1) / c.stddev)
        disc = a1 * a1 - 4.0 * a2 * a0
        q = -0.5 * (a1 + math.copysign(1.0, a1) * np.sqrt(np.maximum(disc, 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = np.sort(np.stack([q / a2, a0 / q]), axis=0)
        between = ndtr((ends[1] - c.mean) / c.stddev) - ndtr((ends[0] - c.mean) / c.stddev)
        between = np.where(disc > 0.0, between, 0.0)
        return 1.0 - between if a2 > 0.0 else between

    f, g = mass(c0), 1.0 - mass(c1)
    return _h2_bits(p0 * f + (1.0 - p0) * (1.0 - g)) - p0 * _h2_bits(f) - (1.0 - p0) * _h2_bits(g)


def _h2_bits(w):
    inside = (w > 0.0) & (w < 1.0)
    v = np.where(inside, w, 0.5)
    return np.where(inside, -(v * np.log2(v) + (1.0 - v) * np.log2(1.0 - v)), 0.0)


class TestGaussianPairScan:
    """The closed-form level scan that ranks the candidates of a single-Gaussian pair."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(spec=gaussian_pairs())
    def test_candidates_and_design_match_a_dense_scan(self, spec):
        cfg = SolverConfig()
        levels = np.linspace(cfg.a_lo, cfg.a_hi, 20001)
        mi = _dense_level_scan(spec, levels)
        # the best levels: every one within rounding of the largest MI
        best = levels[mi >= mi.max() - 1e-12]
        vertices, scan_level, scan_best = solver._candidate_levels(spec, cfg)
        levels, scan_mi = solver._level_scan(spec, cfg)
        assert scan_best == scan_mi.max() and scan_level == levels[np.argmax(scan_mi)]
        assert np.min(np.abs(vertices[:, None] - best[None, :])) <= solver.BRACKET_HALF_WIDTH
        try:
            design = solve(spec, cfg)
        except NoSignChangeError:
            assert mi.max() <= 1e-12  # only identical densities, which carry no information
            return
        except DegenerateChannelError:
            # only a channel that carries next to no information, or one that
            # some level separates almost without error
            assert mi.max() <= 1e-12 or mi.max() >= _h2_bits(np.array(spec.prior.p0)) - 1e-9
            return
        assert design.mi_bits >= mi.max() - 1e-12

    def test_a_narrow_range_of_u_gets_a_design(self):
        # u spans [0.06247, 0.06540]: a scan spaced BRACKET_HALF_WIDTH / 4 apart gave it 3 levels,
        # all at 0 bits, and solve reported no information
        spec = channel_spec(Prior(p0=0.9375), single_gaussian(0.0, 1.0), single_gaussian(0.0, 1.0004893230025016))
        levels, _ = solver._level_scan(spec, SolverConfig())
        assert levels.size == 129
        design = solve(spec)
        _, u_min, u_max = likelihood._u_extent(spec, SolverConfig().grid_points)
        mi = _dense_level_scan(spec, np.linspace(u_min, u_max, 20001))
        assert design.mi_bits >= 1.3e-8 and design.mi_bits >= mi.max() * (1.0 - 1e-9)
        assert design.a_star == pytest.approx(0.0625343, abs=1e-6)
        np.testing.assert_allclose(design.thresholds, [-1.4826098, 1.4826098], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("name, most_roots", [("fig5_spec", 6), ("two_peaks_spec", 4)])
    def test_a_mixture_scan_gives_the_mi_of_its_level_sets(self, name, most_roots, request):
        # the roots of a level alternate in sign past the second one; unpolished,
        # they move the MI by far less than the PEAK_MARGIN_BITS that ranks it
        spec = request.getfixturevalue(name)
        levels, mi = solver._level_scan(spec, SolverConfig())
        fns = level_functionals(fresh_copy(spec), levels)
        exact = [mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1)) for fn in fns]
        assert max(len(fn.roots) for fn in fns) == most_roots
        np.testing.assert_allclose(mi, exact, rtol=0.0, atol=1e-5)

    def test_symmetric_channel_scans_its_midpoint(self, example1_spec):
        # the scan levels are symmetric about the midpoint of the range of u, 0.5
        vertices, scan_level, _ = solver._candidate_levels(example1_spec, SolverConfig())
        assert scan_level == 0.5
        # its MI is symmetric about 0.5 too, so the vertex is 0.5 up to rounding
        assert vertices.tolist() == pytest.approx([0.5], abs=1e-12)

    @pytest.mark.parametrize(
        "levels, mi, i, vertex",
        [
            ([0.1, 0.2, 0.4], [-(0.15**2), -(0.05**2), -(0.15**2)], 1, 0.25),  # a parabola peaking at 0.25
            ([0.1, 0.2, 0.3], [1.0, 1.0, 1.0], 1, 0.2),  # flat
            ([0.1, 0.2, 0.3], [0.0, 1.0, 0.5], 0, 0.1),  # the first level
            ([0.1, 0.2, 0.3], [0.0, 1.0, 0.5], 2, 0.3),  # the last level
            ([0.1, 0.2, 0.2], [0.0, 1.0, 1.0], 1, 0.2),  # a neighbour at the same level
        ],
    )
    def test_the_vertex_of_three_scan_levels(self, levels, mi, i, vertex):
        assert solver._scan_vertex(np.array(levels), np.array(mi), i) == pytest.approx(vertex, abs=1e-15)


class TestErrors:
    def test_identical_densities_report_no_information(self, flat_spec):
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(flat_spec)

    def test_no_information_takes_one_scan(self, flat_spec, monkeypatch):
        # the scan's best MI goes to solve with its candidates: the scan is not taken again
        scans = []
        real = solver._level_roots
        monkeypatch.setattr(solver, "_level_roots", lambda *args, **kw: scans.append(kw) or real(*args, **kw))
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(flat_spec)
        assert scans == [{"polish": False}]

    def test_bracket_without_root_raises(self, example2_spec):
        # F < 0 on the whole admissible range above the optimum
        with pytest.raises(NoSignChangeError):
            solve(example2_spec, SolverConfig(a_lo=0.5, a_hi=0.7))

    def test_a_channel_with_next_to_no_information_reports_none(self):
        # the means are 6e-8 stddevs apart: every level-set quantizer carries 0.0 bits
        spec = channel_spec(Prior(p0=0.0508), single_gaussian(-6e-8, 1.0), single_gaussian(0.0, 1.0))
        assert not classify_monotonicity(spec).flat
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(spec)

    def test_identical_densities_written_as_a_mixture_have_no_level_set(self):
        # u is 0.5 up to rounding, which crosses the level 0.5 in many grid cells
        half = GaussianComponent(mean=0.0, stddev=2.0, weight=0.5)
        spec = channel_spec(Prior(p0=0.5), single_gaussian(0.0, 2.0), DensityModel((half, half)))
        assert classify_monotonicity(spec).flat
        assert find_level_set(spec, 0.5).roots == ()
        (row,) = sweep_levels(spec, [0.5])
        assert row.degenerate and row.n_roots == 0
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(spec)

    def test_separated_densities_are_degenerate(self):
        spec = channel_spec(Prior(p0=0.5), single_gaussian(-10.0, 1.0), single_gaussian(10.0, 1.0))
        with pytest.raises(DegenerateChannelError):
            solve(spec)

    def test_iteration_budget_enforced(self, fig5_spec):
        with pytest.raises(NotConvergedError, match="all 1 rounds"):
            # fig5 takes one narrowing round to tol_a = 1e-10, and more to 1e-13
            solve(fig5_spec, SolverConfig(tol_a=1e-13, max_iter=1))

    def test_config_validation(self):
        with pytest.raises(Exception):
            SolverConfig(a_lo=0.9, a_hi=0.1)
        with pytest.raises(Exception):
            SolverConfig(tol_a=0.0)
        for tol_a in (float("inf"), float("nan")):
            with pytest.raises(InvalidSpecError, match="tol_a"):
                SolverConfig(tol_a=tol_a)
        # the level range lies inside the levels the level layer admits
        for field, value in [("a_lo", 1e-9), ("a_lo", 1e-12), ("a_lo", 0.0), ("a_hi", 1.0 - 1e-9), ("a_hi", 1.0)]:
            with pytest.raises(InvalidSpecError, match=f"^{field} must lie in \\(.*, 1 - 1e-9\\), got "):
                SolverConfig(**{field: value})
        cfg = SolverConfig(a_lo=2e-9, a_hi=1.0 - 2e-9)
        assert (cfg.a_lo, cfg.a_hi) == (2e-9, 1.0 - 2e-9)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        pair=gaussian_pairs(),
        p0=st.floats(1e-3, 0.9999),
        lo=log_uniform(1e-9, 1e-4).filter(lambda v: v > 1e-9),
        hi=log_uniform(1e-9, 1e-4).filter(lambda v: v > 1e-9),
    )
    def test_every_accepted_config_can_be_searched(self, pair, p0, lo, hi):
        # the scan and the search ask the level layer only for levels it admits
        assume(1.0 - hi < 1.0 - 1e-9)
        cfg = SolverConfig(a_lo=lo, a_hi=1.0 - hi)
        spec = channel_spec(Prior(p0=p0), pair.density0, pair.density1, pair.search_lo, pair.search_hi)
        try:
            design = solve(spec, cfg)
        except (DegenerateChannelError, NoSignChangeError):
            return
        assert cfg.a_lo <= design.a_star <= cfg.a_hi


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
