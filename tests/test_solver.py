"""End-to-end solver: the batched level search, design assembly, and the equal-ratio certificate."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from binquant import channel, likelihood, solver
from binquant.cli import load_config
from tests.conftest import CONFIG_DIR, single_gaussian

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
    """Round 0 plus two narrowing rounds: at most 3 F batches per solve on the shipped channels."""

    @pytest.mark.parametrize(
        "name, a_star",
        [("example2_spec", EX2_A_STAR), ("fig5_spec", FIG5_A_STAR), ("asym_spec", ASYM_A_STAR)],
    )
    def test_stationarity_calls(self, name, a_star, request, monkeypatch):
        design, calls = self._solve_counting_f(request.getfixturevalue(name), monkeypatch)
        # one bracket from round 0, then two narrowing rounds
        assert len(calls) <= 3
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


def _searched(fn, candidates, a_lo, a_hi, xtol=1e-10, max_rounds=200, rounds=None, logs=None):
    """:func:`solver._search` of one :func:`solver._candidate_search` per candidate, F = ``fn``.

    ``rounds`` gets the levels of each call of ``fn``; ``logs``, one list
    per candidate, the levels its search yields in each of its own rounds.
    """
    searches = [solver._candidate_search(c, a_lo, a_hi, xtol, max_rounds) for c in candidates]
    if logs is not None:
        searches = [_logged(search, log) for search, log in zip(searches, logs)]
    return solver._search(_recording(fn, [] if rounds is None else rounds), searches)


def _logged(search, log):
    """``search``, appending the levels it yields in each of its own rounds to ``log``."""
    values = None
    try:
        while True:
            log.append(search.send(values))
            values = yield log[-1]
    except StopIteration as done:
        return done.value


class TestBatchedSearch:
    """Level search: :func:`solver._candidate_search` for one candidate, :func:`solver._search` for all."""

    def test_a_lines_zero_is_found_in_one_round(self):
        # round 0 brackets the zero in [0.245, 0.255]; the first narrowing point of a line is its zero
        fn, rounds = lambda x: 0.25 - x, []
        assert _searched(fn, [0.255], 0.0, 1.0, 1e-3, rounds=rounds) == ([("level", 0.25)], 1)
        assert len(rounds) == 2

    @pytest.mark.parametrize(
        "steps, walk_rounds", [(0, 0), (1, 0), (-1, 0), (-2, 1)], ids=["c", "c+w", "c-w", "c-2w"]
    )
    def test_exact_zero_at_an_end_takes_no_round(self, steps, walk_rounds):
        # F is exactly 0 at c, at c + w, at c - w (round 0) or at c - 2w (the walk's first level)
        c, w = 0.5, solver.BRACKET_HALF_WIDTH
        zero = c + steps * w
        fn, rounds = lambda x: zero - x, []
        assert _searched(fn, [c], 0.0, 1.0, rounds=rounds) == ([("level", zero)], walk_rounds)
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
        # the three functions moved 0, 10 and 20 apart: the nearest multiple of 10 picks one
        offsets = [0.0, 10.0, 20.0]
        shifted = lambda x: cases[round(x / 10.0)][0](x - 10.0 * round(x / 10.0))
        moved = [(c + d, a_lo + d, a_hi + d) for d, (_, c, a_lo, a_hi) in zip(offsets, cases)]
        searches = [solver._candidate_search(c, a_lo, a_hi, 1e-10, 200) for c, a_lo, a_hi in moved]
        outcomes, n_rounds = solver._search(_recording(shifted, []), searches)
        assert n_rounds == max(n for _, n in alone)
        assert [kind for kind, _ in outcomes] == ["level"] * 3
        assert [a - d for d, (_, a) in zip(offsets, outcomes)] == pytest.approx(
            [a for ((_, a),), _ in alone], abs=1e-9
        )

    def test_a_search_that_walks_shares_rounds_with_one_that_narrows(self):
        # F falls from + to - at 0.25 and at 0.8: round 0 brackets the first
        # next to 0.255, while 0.95 walks down to 0.79 in four more rounds
        fn, w = (lambda x: -(x - 0.25) * (x - 0.5) * (x - 0.8)), solver.BRACKET_HALF_WIDTH
        candidates, logs, rounds = (0.255, 0.95), [[], []], []
        outcomes, n_rounds = _searched(fn, candidates, 0.0, 1.0, rounds=rounds, logs=logs)
        assert logs[1][1:5] == [[0.95 - k * w] for k in (2, 4, 8, 16)]
        # round 1 holds the first narrowing levels of 0.255 and the first walk level of 0.95
        assert len(logs[0][1]) == 3 and rounds[1] == logs[0][1] + logs[1][1]
        assert n_rounds == len(rounds) - 1 == max(len(log) for log in logs) - 1
        # each search's own levels and its outcome equal those of the search run alone
        for c, log, outcome in zip(candidates, logs, outcomes):
            alone_log = []
            assert _searched(fn, [c], 0.0, 1.0, logs=[alone_log]) == ([outcome], len(log) - 1)
            assert alone_log == log
        assert [kind for kind, _ in outcomes] == ["level", "level"]
        assert [a for _, a in outcomes] == pytest.approx([0.25, 0.8], abs=1e-10)

    def test_exhausted_budget_raises(self):
        with pytest.raises(NotConvergedError, match="all 3 rounds"):
            _searched(lambda x: -_cubic(x), [0.95], -2.0, 1.0, 1e-12, 3)

    def test_ends_that_do_not_bracket_move_out_in_shared_rounds(self):
        # the zero 0.25 lies below both candidates; 0.95's walk reaches the range's edge 0 first
        fn, w, xtol = (lambda x: (0.25 - x) * (1.0 + x)), solver.BRACKET_HALF_WIDTH, 1e-10
        candidates, logs = (0.5, 0.95), [[], []]
        outcomes, _ = _searched(fn, candidates, 0.0, 1.0, xtol, logs=logs)
        for c, log, walk in zip(candidates, logs, (5, 7)):
            # round 0, then the lower end moves out to c - 2w, c - 4w, ..., one level a round
            assert log[0] == [c - w, c, c + w]
            assert log[1 : walk + 1] == [[max(c - 2**k * w, 0.0)] for k in range(1, walk + 1)]
            # the bracket: x1 the walk's level before the last, x2 the last, x3 the one before x1
            x1, x2, x3 = log[walk - 1][0], log[walk][0], log[walk - 2][0]
            assert fn(x1) < 0.0 < fn(x2)
            x = x1 + solver._chandrupatla_t(x1, fn(x1), x2, fn(x2), x3, fn(x3)) * (x2 - x1)
            assert log[walk + 1] == [x - 0.5 * xtol, x, x + 0.5 * xtol]
        assert outcomes == [("level", pytest.approx(0.25, abs=1e-10))] * 2

    def test_a_walk_that_reaches_the_edge_gives_the_edge(self):
        assert _searched(lambda x: 2.0 - x, [0.5], 0.0, 1.0) == ([("edge", 1.0)], 6)

    def test_a_nan_at_a_candidates_level_drops_it(self):
        # NaN below 0.2: 0.1 and 0.205 are dropped in round 0 at their lowest
        # NaN level, 0.3 once its lower end, moving out, reaches 0.14
        fn = lambda x: np.where(x < 0.2, np.nan, 0.15 - x)
        searches = [solver._candidate_search(c, 0.0, 1.0, 1e-10, 200) for c in (0.1, 0.205, 0.3)]
        outcomes, n_rounds = solver._search(fn, searches)
        assert [kind for kind, _ in outcomes] == ["nan"] * 3 and n_rounds == 4
        assert [a for _, a in outcomes] == pytest.approx([0.09, 0.195, 0.14])

    def test_the_design_is_read_from_the_last_level_batch(self, fig5_spec, monkeypatch):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        levels, batches = [], []
        real_f = solver.stationarity
        monkeypatch.setattr(solver, "stationarity", lambda s, a, n: levels.append(a) or real_f(s, a, n))
        for module in (channel, likelihood):
            real_sets = module.find_level_sets
            monkeypatch.setattr(module, "find_level_sets", lambda *args, real=real_sets: batches.append(args) or real(*args))
        design = solve(spec)
        # one level-set batch per F batch, and none more for the design
        assert design.a_star in levels[-1].tolist()
        assert len(batches) == len(levels)


def _two_peaks_optimum(a_lo, a_hi):
    """a*, the thresholds and the MI in bits of ``configs/mixture_two_peaks.json``, at 30 digits.

    Shares no code with binquant.  The roots of u(y) = a are bracketed by a
    float scan of the log-likelihood ratio (spacing 1e-3, and 1e-5 across the
    sigma = 3e-3 spike at 20) and polished by ``mpmath.findroot``; each
    segment between roots goes to Z = 0 where u < a at a point inside it,
    and a* is the zero of F in [a_lo, a_hi].
    """
    mp = mpmath.mp
    comps0, comps1 = [(-1.0, 1.0, 0.9), (20.0, 0.003, 0.1)], [(0.0, 5.0, 1.0)]
    ys = np.union1d(np.linspace(-60.0, 80.0, 140_001), np.linspace(19.9, 20.1, 20_001))

    def log_density(comps, y):
        return np.logaddexp.reduce(
            [np.log(w / (s * math.sqrt(2.0 * math.pi))) - 0.5 * ((y - m) / s) ** 2 for m, s, w in comps], axis=0
        )

    log_r = log_density(comps1, ys) - log_density(comps0, ys)  # u > a exactly where log_r > log(a / (1 - a))

    with mpmath.workdps(30):
        p0 = p1 = mp.mpf(1) / 2

        def u(y):
            d0 = sum(w * mpmath.npdf(y, m, s) for m, s, w in comps0)
            d1 = sum(w * mpmath.npdf(y, m, s) for m, s, w in comps1)
            return p1 * d1 / (p0 * d0 + p1 * d1)

        def design(a):
            side = log_r > float(mpmath.log(a / (1 - a)))
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
        a_star, thresholds, mi = _two_peaks_optimum(0.6970, 0.6976)
        design = solve(spec)
        assert design.a_star == pytest.approx(a_star, abs=1e-8)
        assert len(design.thresholds) == len(thresholds) == 4
        np.testing.assert_allclose(design.thresholds, thresholds, rtol=0.0, atol=1e-7)
        assert design.mi_bits == pytest.approx(mi, abs=1e-9)

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
        assert design.iterations == len(calls) - 1
        # whatever path the search took, it stopped on a + to - zero of F, a
        # local maximum of I(X;Z): one F batch, whose level sets the MI reads
        a, tol = design.a_star, SolverConfig().tol_a
        values = stationarity(spec, np.array([a - tol, a + tol, a - 1e-6, a + 1e-6]))
        assert values[0] >= 0.0 >= values[1]
        for level in (a - 1e-6, a + 1e-6):
            fn = level_functionals(spec, level)
            assert design.mi_bits >= mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1)) - 1e-15


class TestErrors:
    def test_identical_densities_report_no_information(self, flat_spec):
        with pytest.raises(NoSignChangeError, match="no information"):
            solve(flat_spec)

    def test_bracket_without_root_raises(self, example2_spec):
        # F < 0 on the whole admissible range above the optimum
        with pytest.raises(NoSignChangeError):
            solve(example2_spec, SolverConfig(a_lo=0.5, a_hi=0.7))

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

    def test_iteration_budget_enforced(self, example2_spec):
        with pytest.raises(NotConvergedError):
            # example2 takes two narrowing rounds
            solve(example2_spec, SolverConfig(max_iter=1))

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
