"""Likelihood ratio, posterior level, classification, and level-set roots."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from binquant import (
    InvalidSpecError,
    Monotonicity,
    NotConvergedError,
    channel_spec,
    classify_monotonicity,
    find_level_set,
    level_functionals,
    likelihood_ratio,
    posterior,
    predict_single_threshold,
    solve,
    stationarity,
    structural_checks,
    sweep_levels,
    translate_log_concavity,
)
from binquant import likelihood
from binquant.cli import load_config
from binquant.density import DensityModel, GaussianComponent, Prior
from binquant.likelihood import _newton_polish, _search_grid, _u_extent
from tests.conftest import (
    BATCH_SPECS, CONFIG_DIR, batch_levels, far_narrow_pair, fresh_copy, gaussian_pairs, shared_channel
)

# likelihood ratio of the unequal-variance channel at the equal-ratio pair
# (-0.5374, 3.5374); mpmath, 30 dps
EX2_RATIO_AT_QUOTED = 1.427151568703193
EX2_POSTERIOR_AT_QUOTED = 0.4120055841977317


def reference_level_roots(spec, level):
    """Roots of u(y) = level in the search window for two single-Gaussian densities, by mpmath.

    Independent of the library's closed form: log r is evaluated from the
    two Gaussian log-densities at 30 digits, split at its one critical
    point (where it is monotone on each side), and each piece with a sign
    change is bisected 120 times, far below double-precision spacing.  Also
    returns B^2 - 4 A c of the level's quadratic, at the same precision.
    """
    with mpmath.workdps(30):
        (c0,) = spec.density0.components
        (c1,) = spec.density1.components
        m0, s0, m1, s1 = (mpmath.mpf(v) for v in (c0.mean, c0.stddev, c1.mean, c1.stddev))
        p0 = mpmath.mpf(spec.prior.p0)
        level = mpmath.mpf(level)
        target = mpmath.log((1 - p0) / p0 * (1 - level) / level)

        def g(y):
            return ((y - m1) / s1) ** 2 / 2 - ((y - m0) / s0) ** 2 / 2 + mpmath.log(s1 / s0) - target

        a = 1 / (2 * s1**2) - 1 / (2 * s0**2)
        b = m0 / s0**2 - m1 / s1**2
        c = m1**2 / (2 * s1**2) - m0**2 / (2 * s0**2) + mpmath.log(s1 / s0) - target
        lo, hi = mpmath.mpf(spec.search_lo), mpmath.mpf(spec.search_hi)
        ends = [lo, hi]
        if a != 0:
            vertex = (m1 / s1**2 - m0 / s0**2) / (1 / s1**2 - 1 / s0**2)
            if lo < vertex < hi:
                ends = [lo, vertex, hi]
        roots = []
        for x0, x1 in zip(ends, ends[1:]):
            g0 = g(x0)
            if g0 * g(x1) < 0:
                for _ in range(120):
                    mid = (x0 + x1) / 2
                    if (g(mid) < 0) == (g0 < 0):
                        x0 = mid
                    else:
                        x1 = mid
                roots.append(float((x0 + x1) / 2))
        return tuple(roots), b * b - 4 * a * c


class TestSpecValidation:
    def test_default_search_interval_margin(self, example2_spec):
        lo, hi = likelihood.default_search_interval(example2_spec.density0, example2_spec.density1)
        assert lo == pytest.approx(-1.0 - 10.0 * math.sqrt(5.0))
        assert hi == pytest.approx(1.0 + 10.0 * math.sqrt(5.0))
        assert (example2_spec.search_lo, example2_spec.search_hi) == (lo, hi)

    def test_rejects_narrow_search_interval(self):
        d = DensityModel(components=(GaussianComponent(0.0, 1.0, 1.0),))
        with pytest.raises(InvalidSpecError):
            channel_spec(Prior(0.5), d, d, search_lo=-5.0, search_hi=5.0)

    def test_wider_interval_accepted(self):
        d = DensityModel(components=(GaussianComponent(0.0, 1.0, 1.0),))
        spec = channel_spec(Prior(0.5), d, d, search_lo=-20.0, search_hi=20.0)
        assert spec.search_lo == -20.0


class TestRatioAndPosterior:
    def test_symmetric_midpoint(self, example1_spec):
        assert likelihood_ratio(example1_spec, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert posterior(example1_spec, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_equal_ratio_at_quoted_thresholds(self, example2_spec):
        r_lo = likelihood_ratio(example2_spec, -0.5374)
        r_hi = likelihood_ratio(example2_spec, 3.5374)
        assert r_lo == pytest.approx(EX2_RATIO_AT_QUOTED, rel=1e-12)
        assert r_hi == pytest.approx(EX2_RATIO_AT_QUOTED, rel=1e-12)

    def test_posterior_at_quoted_threshold(self, example2_spec):
        # the level 0.412 quoted for this channel is the posterior here
        assert posterior(example2_spec, -0.5374) == pytest.approx(
            EX2_POSTERIOR_AT_QUOTED, rel=1e-12
        )
        assert posterior(example2_spec, -0.5374) == pytest.approx(0.412, abs=5e-4)

    def test_posterior_vanishes_in_heavy_tail(self, example2_spec):
        assert posterior(example2_spec, example2_spec.search_lo) < 0.01

    def test_posterior_strictly_decreasing_in_ratio(self, fig5_spec):
        # interior window: past ~5.5 the log-ratio of this channel drops
        # below -37 and the posterior saturates to exactly 1.0 in float64,
        # which would create ties rather than strict decreases
        rng = np.random.default_rng(5)
        ys = rng.uniform(-5.5, 5.5, size=200)
        ratios = likelihood_ratio(fig5_spec, ys)
        posts = posterior(fig5_spec, ys)
        order = np.argsort(ratios)
        sorted_posts = posts[order]
        assert np.all(np.diff(sorted_posts) < 0)

    def test_logistic_matches_mpmath(self, example1_spec):
        # p0 = 1/2, so u is the logistic of -log r exactly
        x = np.r_[np.linspace(-700.0, 700.0, 1401), np.random.default_rng(3).uniform(-40.0, 40.0, 600)]
        got = likelihood._logistic(example1_spec, -x)
        with mpmath.workdps(30):
            want = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in x])
        assert np.max(np.abs(got - want) / want) <= 1e-15
        with np.errstate(all="raise"):
            assert likelihood._logistic(example1_spec, np.array([-math.inf, math.inf])).tolist() == [1.0, 0.0]

    def test_posterior_matches_direct_formula(self, asym_spec):
        ys = np.linspace(-6.0, 6.0, 41)
        p0, p1 = asym_spec.prior.p0, asym_spec.prior.p1
        direct = 1.0 / (1.0 + (p0 / p1) * likelihood_ratio(asym_spec, ys))
        np.testing.assert_allclose(posterior(asym_spec, ys), direct, rtol=1e-12)


class TestClassify:
    def test_symmetric_channel_is_strictly_decreasing(self, example1_spec):
        report = classify_monotonicity(example1_spec)
        assert report.verdict is Monotonicity.STRICTLY_DECREASING
        assert report.grid_points == 4096
        assert not report.flat

    def test_unequal_variance_is_non_monotonic(self, example2_spec):
        assert classify_monotonicity(example2_spec).verdict is Monotonicity.NON_MONOTONIC

    def test_three_bump_is_non_monotonic(self, fig5_spec):
        assert classify_monotonicity(fig5_spec).verdict is Monotonicity.NON_MONOTONIC

    def test_identical_densities_flat(self, flat_spec):
        report = classify_monotonicity(flat_spec)
        assert report.verdict is Monotonicity.NON_MONOTONIC
        assert report.flat

    def test_rejects_tiny_grid(self, example1_spec):
        with pytest.raises(InvalidSpecError):
            classify_monotonicity(example1_spec, grid_points=32)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(spec=gaussian_pairs(), grid_points=st.sampled_from([64, 1000, 4096]))
    def test_closed_form_verdict_is_the_step_rule_on_the_grid(self, spec, grid_points):
        # log r of a single-Gaussian pair, evaluated by the test in extended precision
        # on the uniform grid, and the 1e-12 rule applied to its steps
        (c0,), (c1,) = spec.density0.components, spec.density1.components
        y = np.linspace(spec.search_lo, spec.search_hi, grid_points).astype(np.longdouble)
        m0, s0, m1, s1 = (np.longdouble(v) for v in (c0.mean, c0.stddev, c1.mean, c1.stddev))
        steps = np.diff(((y - m1) / s1) ** 2 / 2 - ((y - m0) / s0) ** 2 / 2)
        if np.all(steps > 1e-12):
            verdict = Monotonicity.STRICTLY_INCREASING
        elif np.all(steps < -1e-12):
            verdict = Monotonicity.STRICTLY_DECREASING
        else:
            verdict = Monotonicity.NON_MONOTONIC
        report = classify_monotonicity(spec, grid_points)
        assert (report.verdict, report.flat) == (verdict, bool(np.all(np.abs(steps) <= 1e-12)))
        assert report.grid_points == grid_points
        assert spec._grids == {}


class TestTranslateConcavity:
    def test_shifted_gaussians_detected(self, example1_spec):
        verdict = translate_log_concavity(example1_spec)
        assert verdict.shift_detected
        assert verdict.shift == pytest.approx(2.0, abs=1e-12)
        assert verdict.log_concave
        assert not verdict.log_convex

    def test_different_widths_are_not_translates(self, example2_spec):
        assert not translate_log_concavity(example2_spec).shift_detected

    def test_different_component_counts_are_not_translates(self, fig5_spec):
        assert not translate_log_concavity(fig5_spec).shift_detected


@st.composite
def _translates(draw):
    """A channel whose density1 is density0 shifted by at least 1e-3: one or two components."""
    weight = draw(st.floats(0.1, 0.9))
    weights = draw(st.sampled_from([(1.0,), (weight, 1.0 - weight)]))
    comps = [(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.3, 3.0)), w) for w in weights]
    shift = draw(st.one_of(st.floats(-5.0, -1e-3), st.floats(1e-3, 5.0)))

    def density(offset):
        return DensityModel(tuple(GaussianComponent(m + offset, sd, w) for m, sd, w in comps))

    return channel_spec(Prior(p0=draw(st.floats(0.1, 0.9))), density(0.0), density(shift))


class TestSingleThresholdTheorem:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(spec=_translates())
    def test_log_concave_or_convex_translate_has_a_strictly_monotone_ratio(self, spec):
        # so predicting one threshold from the ratio alone covers the translate case
        shape = translate_log_concavity(spec)
        assume(shape.shift_detected and (shape.log_concave or shape.log_convex))
        assert classify_monotonicity(spec).verdict is not Monotonicity.NON_MONOTONIC


class TestLevelSet:
    def test_symmetry_forces_midpoint_root(self, example1_spec):
        ls = find_level_set(example1_spec, 0.5)
        assert len(ls.roots) == 1
        assert ls.roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_quoted_two_threshold_level(self, example2_spec):
        ls = find_level_set(example2_spec, 0.412)
        assert len(ls.roots) == 2
        assert ls.roots[0] == pytest.approx(-0.5374, abs=1e-3)
        assert ls.roots[1] == pytest.approx(3.5374, abs=1e-3)
        # against the 30-digit reference, much tighter
        exact, _ = reference_level_roots(example2_spec, 0.412)
        np.testing.assert_allclose(ls.roots, exact, atol=1e-9)

    def test_three_bump_six_roots_at_half(self, fig5_spec):
        assert len(find_level_set(fig5_spec, 0.5).roots) == 6

    def test_roots_match_quadratic_oracle(self, example2_spec, asym_spec):
        for spec in (example2_spec, asym_spec):
            for level in (0.2, 0.35, 0.5):
                exact, _ = reference_level_roots(spec, level)
                got = find_level_set(spec, level).roots
                assert len(got) == len(exact)
                np.testing.assert_allclose(got, exact, atol=1e-9)

    def test_roots_satisfy_level_equation(self, example2_spec, fig5_spec):
        for spec in (example2_spec, fig5_spec):
            for level in (0.2, 0.45, 0.6):
                ls = find_level_set(spec, level)
                for root in ls.roots:
                    assert abs(posterior(spec, root) - level) <= 1e-9

    def test_ratio_at_roots_matches_level(self, example2_spec, fig5_spec, asym_spec):
        # one-to-one mapping: r(root) = (p1/p0)(1-a)/a
        for spec in (example2_spec, fig5_spec, asym_spec):
            p0, p1 = spec.prior.p0, spec.prior.p1
            for level in (0.25, 0.5, 0.65):
                expected = (p1 / p0) * (1.0 - level) / level
                for root in find_level_set(spec, level).roots:
                    assert likelihood_ratio(spec, root) == pytest.approx(expected, rel=1e-8)

    def test_roots_sorted_and_inside_window(self, fig5_spec):
        for level in (0.1, 0.3, 0.5, 0.7, 0.9):
            ls = find_level_set(fig5_spec, level)
            roots = np.asarray(ls.roots)
            assert np.all(np.diff(roots) > 0)
            assert np.all(roots >= fig5_spec.search_lo)
            assert np.all(roots <= fig5_spec.search_hi)

    def test_monotone_ratio_gives_at_most_one_root(self, example1_spec):
        for level in np.linspace(0.1, 0.9, 9):
            assert len(find_level_set(example1_spec, float(level)).roots) <= 1

    def test_refinement_monotonicity(self, example1_spec, example2_spec, fig5_spec):
        # doubling the grid never loses roots
        for spec in (example1_spec, example2_spec, fig5_spec):
            for level in (0.2, 0.5, 0.65):
                coarse = len(find_level_set(spec, level, grid_points=4096).roots)
                fine = len(find_level_set(spec, level, grid_points=8192).roots)
                assert fine >= coarse

    def test_rejects_out_of_band_levels(self, example1_spec):
        for level in (-0.1, 0.0, 1.0, 1.1, 1e-12, 1.0 - 1e-12):
            with pytest.raises(InvalidSpecError):
                find_level_set(example1_spec, level)

    def test_flat_posterior_has_no_roots(self, flat_spec):
        ls = find_level_set(flat_spec, 0.25)
        assert ls.roots == ()

    def test_constant_posterior_at_the_level_has_no_roots(self, flat_spec):
        # u is identically 0.5: it sits on the level everywhere and never crosses it
        ls = find_level_set(flat_spec, 0.5)
        assert ls.roots == ()

    def test_exact_grid_zero_that_crosses_is_a_root(self, example1_spec):
        # 4097 points put y = 0.0 exactly on the grid, where u == 0.5 exactly
        ls = find_level_set(example1_spec, 0.5, grid_points=4097)
        assert ls.roots == (0.0,)

    def test_run_of_grid_points_on_the_level_is_one_root(self, shared_spec):
        # u == 0.5 exactly on 294 grid points, above 0.5 before them and below after
        u = _search_grid(shared_spec, 4096).u
        assert np.count_nonzero(u == 0.5) == 294
        ls = find_level_set(shared_spec, 0.5)
        assert len(ls.roots) == 1
        assert ls.roots[0] == pytest.approx(1.4310, abs=1e-4)


def dense_scan(spec, level, grid_points=4096):
    """Root count of one level by the half-open rule, from a full scan of the cached u.

    A cell whose two ends differ in u < level is one crossing.  A single grid
    point where u touches the level from below closes the crossings on both
    of its sides at the same point: they bound an empty segment, and neither
    is a root.
    """
    u = _search_grid(spec, grid_points).u
    below = u < level
    crossings = np.count_nonzero(below[:-1] != below[1:])
    touches = np.count_nonzero(below[:-2] & (u[1:-1] == level) & below[2:])
    return int(crossings - 2 * touches)


class TestBatchedLevelSets:
    @pytest.mark.parametrize("name", BATCH_SPECS)
    def test_batch_equals_each_level_alone(self, name, request):
        spec = request.getfixturevalue(name)
        levels = batch_levels(spec)
        together = find_level_set(spec, levels)
        alone = fresh_copy(spec)
        assert together == tuple(find_level_set(alone, a) for a in levels)
        assert [ls.level for ls in together] == levels

    @pytest.mark.parametrize("name", BATCH_SPECS)
    def test_root_counts_match_a_dense_sign_scan(self, name, request):
        spec = request.getfixturevalue(name)
        levels = batch_levels(spec)
        for a, ls in zip(levels, find_level_set(spec, levels)):
            assert len(ls.roots) == dense_scan(spec, a)
            assert np.all(np.abs(posterior(spec, np.asarray(ls.roots)) - a) <= 1e-9)

    def test_exact_grid_hit_in_a_batch(self, example1_spec, example2_spec, fig5_spec):
        # 4097 points put y = 0.0 on the grid, where u == 0.5 exactly
        sets = find_level_set(example1_spec, [0.3, 0.5, 0.7, 0.5], grid_points=4097)
        assert sets[1].roots == sets[3].roots == (0.0,)
        assert sets == tuple(find_level_set(fresh_copy(example1_spec), a, 4097) for a in (0.3, 0.5, 0.7, 0.5))
        assert [len(ls.roots) for ls in sets] == [dense_scan(example1_spec, a, 4097) for a in (0.3, 0.5, 0.7, 0.5)]
        # a mixture takes the grid rule: a level equal to u at a grid point where
        # u is monotone has that point as a root, and at a strict grid maximum of
        # u the level touches from below there, which bounds no segment
        grid = _search_grid(fig5_spec, 4096)
        ys, u = grid.ys, grid.u
        mono = 2000
        assert (u[mono - 1] - u[mono]) * (u[mono] - u[mono + 1]) > 0
        peak = int(1 + np.flatnonzero((u[1:-1] > u[:-2]) & (u[1:-1] > u[2:]))[0])
        assert np.count_nonzero(u == u[peak]) == 1
        levels = [float(u[mono]), float(u[peak]), 0.5, float(u[mono])]
        sets = find_level_set(fig5_spec, levels)
        assert ys[mono] in sets[0].roots and sets[3] == sets[0]
        assert ys[peak] not in sets[1].roots
        assert sets == tuple(find_level_set(fresh_copy(fig5_spec), a) for a in levels)
        assert [len(ls.roots) for ls in sets] == [dense_scan(fig5_spec, a) for a in levels]
        # u of example2 peaks inside the window, above its grid maximum: at that
        # level the grid sees u touch the level from below at one point and
        # count no crossing, while the closed form finds the two true roots on
        # both sides of the vertex of log r, inside one grid cell of it
        grid = _search_grid(example2_spec, 4096)
        ys, u = grid.ys, grid.u
        peak = int(np.argmax(u))
        assert 0 < peak < u.size - 1 and np.count_nonzero(u == u[peak]) == 1
        level = float(u[peak])
        sets = find_level_set(example2_spec, [0.3, level])
        assert dense_scan(example2_spec, level) == 0
        reference, disc = reference_level_roots(example2_spec, level)
        assert disc > 0 and len(reference) == 2
        np.testing.assert_allclose(sets[1].roots, reference, rtol=0.0, atol=1e-9)
        quad_a, quad_b, _, center = example2_spec._log_r_quadratic
        vertex = center - quad_b / (2.0 * quad_a)
        low, high = sets[1].roots
        assert vertex - (ys[1] - ys[0]) < low < vertex < high < vertex + (ys[1] - ys[0])
        assert len(sets[0].roots) == 2

    def test_constant_posterior_in_a_batch(self, flat_spec):
        low, half, high = find_level_set(flat_spec, [0.25, 0.5, 0.75])
        assert half.roots == ()
        assert low.roots == high.roots == ()

    def test_out_of_band_level_anywhere_raises(self, example1_spec):
        for bad in (0.0, 1.0, 1e-12, float("nan")):
            for levels in (bad, [bad], [bad, 0.3, 0.5], [0.3, bad, 0.5], np.array([0.3, 0.5, bad])):
                with pytest.raises(InvalidSpecError, match="level must lie in"):
                    find_level_set(example1_spec, levels)

    def test_empty_batch(self, example1_spec):
        assert find_level_set(example1_spec, []) == ()
        assert find_level_set(example1_spec, np.empty(0)) == ()


def _normalized_mixture(comps):
    total = sum(w for _, _, w in comps)
    return DensityModel(tuple(GaussianComponent(m, s, w / total) for m, s, w in comps))


_MIXTURE = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 3.0), st.floats(0.1, 1.0)),
    min_size=1,
    max_size=3,
).map(_normalized_mixture)

_CHANNELS = st.one_of(
    st.just(shared_channel()),
    st.builds(lambda p0, d0, d1: channel_spec(Prior(p0=p0), d0, d1), st.floats(0.2, 0.8), _MIXTURE, _MIXTURE),
)


class TestCrossingRule:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(spec=_CHANNELS, picks=st.lists(st.integers(0, 4095), min_size=1, max_size=6))
    def test_segments_alternate_at_levels_on_the_grid(self, spec, picks):
        # levels equal to grid values of u, the strict local extrema included
        grid = _search_grid(spec, 4096)
        ys, u = grid.ys, grid.u
        extrema = 1 + np.flatnonzero((u[1:-1] - u[:-2]) * (u[1:-1] - u[2:]) > 0)
        levels = [a for a in u[[*picks, *extrema]].tolist() if 1e-9 < a < 1.0 - 1e-9]
        assume(levels)
        for a, ls in zip(levels, find_level_set(spec, levels)):
            roots = np.asarray(ls.roots)
            assert np.all(np.diff(roots) > 0)
            # every grid point off the level lies on the side the alternation
            # predicts, with the first segment labelled by u[0]
            off = u != a
            odd = np.searchsorted(roots, ys[off]) % 2 == 1
            assert np.array_equal(u[off] < a, (u[0] < a) != odd)


@st.composite
def _gaussian_pair_levels(draw):
    """A single-Gaussian channel and levels to solve on it.

    Equal variances (a linear log r) and skewed priors are drawn on purpose,
    and so are levels within 1e-6 of the extreme value of u at the vertex of
    log r, on both sides of it, when that vertex lies in the window.
    """
    p0 = draw(st.one_of(st.floats(0.02, 0.98), st.sampled_from([0.01, 0.05, 0.95, 0.99])))
    m0, m1 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    s0 = draw(st.floats(0.3, 3.0))
    s1 = s0 if draw(st.booleans()) else draw(st.floats(0.3, 3.0))
    spec = channel_spec(
        Prior(p0=p0),
        DensityModel((GaussianComponent(m0, s0, 1.0),)),
        DensityModel((GaussianComponent(m1, s1, 1.0),)),
    )
    levels = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))
    if s0 != s1:
        vertex = (m1 / s1**2 - m0 / s0**2) / (1 / s1**2 - 1 / s0**2)
        if spec.search_lo < vertex < spec.search_hi:
            with mpmath.workdps(30):
                log_r = mpmath.log(mpmath.npdf(vertex, m0, s0) / mpmath.npdf(vertex, m1, s1))
                extreme = 1 / (1 + p0 / (1 - mpmath.mpf(p0)) * mpmath.exp(log_r))
                for offset in draw(st.lists(st.floats(1e-9, 1e-6), min_size=1, max_size=2)):
                    levels += [float(extreme - offset), float(extreme + offset)]
    return spec, [a for a in levels if 1e-9 < a < 1.0 - 1e-9]


class TestClosedFormLevelSets:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(case=_gaussian_pair_levels())
    def test_roots_match_an_independent_reference(self, case):
        spec, levels = case
        assert spec._log_r_quadratic is not None
        for a, ls in zip(levels, find_level_set(spec, levels)):
            roots = np.asarray(ls.roots)
            assert np.all(np.diff(roots) > 0)
            assert np.all((roots >= spec.search_lo) & (roots <= spec.search_hi))
            assert np.all(np.abs(posterior(spec, roots) - a) <= 1e-9)
            reference, disc = reference_level_roots(spec, a)
            assert len(ls.roots) == len(reference)
            np.testing.assert_allclose(ls.roots, reference, rtol=0.0, atol=1e-9)
            # no real crossing without a positive discriminant
            if disc <= 0:
                assert ls.roots == ()

    def test_root_error_is_bounded_in_y_next_to_a_narrow_component(self):
        # u is steep here.  log r is expanded about m0, the narrow component's
        # mean, so the size M of its rounded terms holds no m0^2 / (2 s0^2)
        # (1.2e8): the bound is 2.2e-15 and |u(root) - a| at most 9.8e-13.
        # Expanded in y itself, roots 3.8e-12 off had |u - a| = 1.36e-8.
        m0, s0, m1, s1 = 4.927594244707205, 0.0003216987682510348, 2.4770407629303737, 2.7393810165026125
        spec = channel_spec(
            Prior(p0=0.7868845056304776),
            DensityModel((GaussianComponent(m0, s0, 1.0),)),
            DensityModel((GaussianComponent(m1, s1, 1.0),)),
        )
        level = 0.56
        roots = find_level_set(spec, level).roots
        exact, _ = reference_level_roots(spec, level)
        assert len(roots) == len(exact) == 2
        with mpmath.workdps(30):
            p0, a = mpmath.mpf(spec.prior.p0), mpmath.mpf(level)
            logs = abs(mpmath.log(s1 / s0)) + abs(mpmath.log((1 - p0) / p0)) + abs(mpmath.log((1 - a) / a))
            for root, y in zip(roots, map(mpmath.mpf, exact)):
                w = abs(y - m0)
                size = w**2 / (2 * s0**2) + (w + abs(m1 - m0)) ** 2 / (2 * s1**2) + logs
                slope = abs((y - m1) / s1**2 - (y - m0) / s0**2)
                bound = 2 * np.finfo(float).eps * (size / slope + abs(y))
                assert abs(root - y) <= bound <= 1e-14
                u = 1 / (1 + p0 / (1 - p0) * mpmath.npdf(root, m0, s0) / mpmath.npdf(root, m1, s1))
                assert abs(u - a) < 1e-11

    def test_roots_follow_the_level_next_to_a_far_narrow_component(self):
        spec = far_narrow_pair()
        sets = find_level_set(spec, [0.05, 0.3, 0.6, 0.9])
        for a, ls in zip((0.05, 0.3, 0.6, 0.9), sets):
            reference, _ = reference_level_roots(spec, a)
            assert len(ls.roots) == len(reference) == 2
            np.testing.assert_allclose(ls.roots, reference, rtol=0.0, atol=1e-13)
        # the level set narrows about the spike's mean as the level rises
        lows, highs = zip(*(ls.roots for ls in sets))
        assert np.all(np.diff(lows) > 0) and np.all(np.diff(highs) < 0)

    def test_mixtures_take_the_grid_path(self, fig5_spec, two_peaks_spec, shared_spec):
        for spec in (fig5_spec, two_peaks_spec, shared_spec):
            assert spec._log_r_quadratic is None

    def test_solve_makes_no_posterior_call_after_the_grid_build(self, monkeypatch):
        spec = _fresh_example2()
        _search_grid(spec, 4096)
        calls = []
        real = likelihood.posterior
        monkeypatch.setattr(likelihood, "posterior", lambda *args: calls.append(args) or real(*args))
        design = solve(spec)
        assert len(design.thresholds) == 2
        assert calls == []


def _fresh_example2():
    """The unequal-variance channel, built anew (not the session fixture)."""
    return channel_spec(
        Prior(p0=0.5),
        DensityModel((GaussianComponent(mean=-1.0, stddev=math.sqrt(5.0), weight=1.0),)),
        DensityModel((GaussianComponent(mean=1.0, stddev=1.0, weight=1.0),)),
    )


def _fresh_fig5():
    """configs/fig5.json, built anew: a mixture channel, whose search grid is uniform."""
    return load_config(str(CONFIG_DIR / "fig5.json"))[0]


def _count_full_grid_log_pdfs(monkeypatch):
    """Ids of the models of every log-pdf evaluation on a whole grid of at least 4096 points.

    Counts both kernels ``likelihood`` evaluates mixtures with: ``log_pdf``
    and ``_log_pdf_slope``, which builds the search grid (4096 uniform
    points, plus 129 for each narrow component).
    """
    calls = []
    for name in ("log_pdf", "_log_pdf_slope"):
        real = getattr(likelihood, name)

        def counting(model, y, real=real):
            if np.size(y) >= 4096:
                calls.append(id(model))
            return real(model, y)

        monkeypatch.setattr(likelihood, name, counting)
    return calls


class TestSearchGridCache:
    def test_equal_specs_each_compute_their_grid_once(self, monkeypatch):
        full_grid_pdfs = _count_full_grid_log_pdfs(monkeypatch)
        first, second = _fresh_fig5(), _fresh_fig5()
        assert first == second and first is not second
        for spec in (first, second, first):
            for level in (0.2, 0.655842234224044, 0.5):
                find_level_set(spec, level)
                level_functionals(spec, level)
            classify_monotonicity(spec)
        # one log-pdf-and-slope call per density per build: log r, u and du/dy come from it
        assert len(full_grid_pdfs) == 4
        assert full_grid_pdfs == [id(first.density0), id(first.density1), id(second.density0), id(second.density1)]
        # the concavity verdict takes one density0 log-pdf on the grid per call
        full_grid_pdfs.clear()
        for spec in (first, second, first):
            translate_log_concavity(spec)
        assert full_grid_pdfs == [id(first.density0), id(second.density0), id(first.density0)]

    @pytest.mark.parametrize("name", ["two_peaks_spec", "fig5_spec"])
    def test_predict_single_threshold_after_solve_reads_the_grid(self, name, request, monkeypatch):
        fixture = request.getfixturevalue(name)
        spec = channel_spec(fixture.prior, fixture.density0, fixture.density1)
        full_grid_pdfs = _count_full_grid_log_pdfs(monkeypatch)
        solve(spec)
        assert len(full_grid_pdfs) == 2
        assert not predict_single_threshold(spec)
        assert len(full_grid_pdfs) == 2

    def test_alternating_grid_sizes_match_fresh_specs(self, fig5_spec):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        for grid_points in (4096, 8192, 4096):
            for level in (0.2, 0.5, 0.65):
                fresh = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
                assert find_level_set(spec, level, grid_points) == find_level_set(
                    fresh, level, grid_points
                )

    def test_a_narrow_component_adds_points_over_it(self, two_peaks_spec):
        # sigma = 3e-3 is a tenth of the uniform spacing: 129 points over mean +- 8 sigma join the grid
        grid = _search_grid(fresh_copy(two_peaks_spec), 4096)
        uniform = np.linspace(two_peaks_spec.search_lo, two_peaks_spec.search_hi, 4096)
        narrow = np.linspace(20.0 - 0.024, 20.0 + 0.024, 129)
        np.testing.assert_array_equal(grid.ys, np.union1d(uniform, narrow))
        assert grid.u.shape == grid.du.shape == grid.log_r.shape == grid.ys.shape

    def test_cached_arrays_are_read_only(self):
        grid = _search_grid(_fresh_example2(), 4096)
        # the two fields that are not arrays
        assert type(grid.flat) is bool and [type(v) for v in grid.u_extent] == [float] * 3
        for arr in grid[:-2]:
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestUExtentOncePerChannel:
    """u at ``search_lo`` and the range of u depend on no level, so a batch of levels reads them, kept per channel."""

    def test_a_gaussian_pair_computes_them_once(self, monkeypatch):
        calls = []
        real = likelihood._logistic
        monkeypatch.setattr(likelihood, "_logistic", lambda *args: calls.append(args) or real(*args))
        spec = _fresh_example2()
        # built with the spec, in closed form: u at the window's ends and at the vertex of log r
        assert [np.size(log_r) for _, log_r in calls] == [3]
        extent = _u_extent(spec, 4096)
        stationarity(spec, np.array([0.3, 0.5]))
        stationarity(spec, np.array([0.4, 0.6]))
        sweep_levels(spec, [0.2, 0.7])
        assert len(calls) == 1 and _u_extent(spec, 4096) is extent

    def test_a_mixture_keeps_them_on_its_grid(self, fig5_spec):
        spec = fresh_copy(fig5_spec)
        stationarity(spec, np.array([0.3, 0.5]))
        grid, extent = _search_grid(spec, 4096), _u_extent(spec, 4096)
        assert extent is grid.u_extent == (grid.u[0], grid.u.min(), grid.u.max())
        stationarity(spec, np.array([0.4, 0.6]))
        assert _u_extent(spec, 4096) is extent and _search_grid(spec, 4096) is grid


def _ends(fn, lo, hi, slope=None):
    """Bracket arrays, and fn and its slope at their ends, as _newton_polish takes them.

    The slope defaults to a central difference of ``fn``.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if slope is None:
        slope = lambda x: (fn(x + 1e-7) - fn(x - 1e-7)) / 2e-7
    return lo, hi, fn(lo), fn(hi), slope(lo), slope(hi)


def _pointwise(fn):
    """``fn`` as _newton_polish calls it: with the open brackets' indices, unused here."""
    return lambda x, idx: fn(x)


def _cubic(x):
    return (x - 0.3) ** 3 + 0.01 * (x - 0.3)


class TestBracketedSecant:
    """The bracketed polishing of level-set roots, :func:`_newton_polish`."""

    def test_brackets_narrowed_together_match_each_alone(self, fig5_spec):
        level = 0.5
        fn = lambda y: posterior(fig5_spec, y) - level
        grid = _search_grid(fig5_spec, 4096)
        cells = np.nonzero(np.sign(grid.u[:-1] - level) * np.sign(grid.u[1:] - level) < 0)[0]
        # brackets of u - level, with the cached slopes of u at their ends
        brackets = [grid.ys[cells], grid.ys[cells + 1], grid.u[cells] - level, grid.u[cells + 1] - level,
                    grid.du[cells], grid.du[cells + 1]]
        together, steps = _newton_polish(_pointwise(fn), *brackets, 1e-12, 1e-12, 200)
        alone = [
            _newton_polish(_pointwise(fn), *(v[i : i + 1] for v in brackets), 1e-12, 1e-12, 200)
            for i in range(brackets[0].size)
        ]
        assert len(together) == 6
        assert together.tolist() == [r[0] for r, _ in alone]
        assert steps == max(s for _, s in alone)
        assert np.all(np.abs(fn(together)) <= 1e-9)

    def test_exact_zero_is_returned_as_is(self):
        # the inverse cubic-Hermite point of a line is its zero
        fn = lambda x: x - 0.25
        roots, steps = _newton_polish(_pointwise(fn), *_ends(fn, [0.0], [1.0], np.ones_like), 1e-3, 0.0, 200)
        assert (roots.tolist(), steps) == ([0.25], 1)

    @pytest.mark.parametrize("lo, hi, root", [(0.25, 1.0, 0.25), (0.0, 0.25, 0.25)])
    def test_exact_zero_at_an_end_closes_the_bracket_with_no_step(self, lo, hi, root):
        fn = lambda x: x - 0.25
        calls = []

        def recording(x, idx):
            calls.append(x.copy())
            return fn(x)

        ends = _ends(fn, [lo, 0.0], [hi, 1.0])
        roots, steps = _newton_polish(recording, *ends, 1e-10, 0.0, 200)
        assert roots[0] == root
        # only the other bracket is ever evaluated
        assert all(x.size == 1 for x in calls)
        alone = _newton_polish(recording, *_ends(fn, [lo], [hi]), 1e-10, 0.0, 200)
        assert (alone[0].tolist(), alone[1]) == ([root], 0)

    def test_each_bracket_gets_its_own_indices(self):
        # two brackets of two different functions, told apart by index
        shifts = np.array([0.2, 0.7])
        seen = []

        def fn(x, idx):
            seen.append(idx.tolist())
            return np.tanh(5.0 * (x - shifts[idx]))

        lo, hi = np.zeros(2), np.ones(2)
        slopes = lambda x: 5.0 / np.cosh(5.0 * (x - shifts)) ** 2
        both = np.arange(2)
        roots, _ = _newton_polish(fn, lo, hi, fn(lo, both), fn(hi, both), slopes(lo), slopes(hi), 1e-12, 0.0, 200)
        assert roots == pytest.approx(shifts, abs=1e-12)
        assert all(set(ix) <= {0, 1} and ix == sorted(ix) for ix in seen)

    @pytest.mark.parametrize(
        "fn, lo, hi, xtol",
        [
            (lambda x: x - 1e-15, 0.0, 1.0, 1e-6),  # the zero hugs the lower end
            (lambda x: 1.0 - 1e-15 - x, 0.0, 1.0, 1e-6),  # ... and the upper end
            (_cubic, -2.0, 1.0, 1e-10),
            (lambda x: np.tanh(50.0 * (x - 0.7)), -2.0, 1.0, 1e-12),
        ],
    )
    def test_every_point_stays_half_a_tolerance_inside(self, fn, lo, hi, xtol):
        points = []

        def recording(x, idx):
            points.extend(x.tolist())
            return fn(x)

        f_lo = float(fn(np.array([lo]))[0])
        _newton_polish(recording, *_ends(fn, [lo], [hi]), xtol, 0.0, 200)
        assert points
        for x in points:
            assert lo + 0.5 * xtol <= x <= hi - 0.5 * xtol
            fx = float(fn(np.array([x]))[0])
            if fx == 0.0:
                lo = hi = x  # an exact zero is the root: no point may follow it
            elif (fx > 0.0) == (f_lo > 0.0):
                lo = x
            else:
                hi = x
        assert hi - lo <= xtol

    def test_exhausted_budget_raises(self):
        with pytest.raises(NotConvergedError):
            _newton_polish(_pointwise(_cubic), *_ends(_cubic, [-2.0], [1.0]), 1e-12, 0.0, 3)


def _two_peaks_narrow():
    """configs/mixture_two_peaks.json with its narrow component's stddev cut from 3e-3 to 3e-4."""
    spec = load_config(str(CONFIG_DIR / "mixture_two_peaks.json"))[0]
    wide, narrow = spec.density0.components
    density0 = DensityModel((wide, GaussianComponent(narrow.mean, 3e-4, narrow.weight)))
    return channel_spec(spec.prior, density0, spec.density1)


#: Total root counts over the 99 sweep levels of mixture channels whose roots
#: the uniform 4096-point grid alone already found.
PINNED_ROOT_COUNTS = {
    "mixture_two_peaks": 362,
    "solve-1-mix02": 137,
    "solve-3-mix04": 354,
    "solve-6-mix02-1": 412,
    "solve-8-mix03": 173,
    "tabulate-2-mix01-1": 302,
    "tabulate-2-mix09-1": 218,
}

#: The pinned channels, and the two-peak config with a component 1/100 of the uniform spacing wide.
ROOT_COUNT_CHANNELS = sorted([*PINNED_ROOT_COUNTS, "mixture_two_peaks_sd3e-4"])

SWEEP_LEVELS = np.linspace(0.01, 0.99, 99)

VERIFY_DATA = Path(__file__).resolve().parent / "data" / "verify"


def _root_count_channel(name):
    if name == "mixture_two_peaks":
        return load_config(str(CONFIG_DIR / "mixture_two_peaks.json"))[0]
    if name == "mixture_two_peaks_sd3e-4":
        return _two_peaks_narrow()
    return load_config(str(VERIFY_DATA / f"{name}.json"))[0]


def _fresh_asym():
    """The unequal-variance channel with a skewed prior, built anew."""
    return channel_spec(
        Prior(p0=0.3),
        DensityModel((GaussianComponent(mean=-1.0, stddev=math.sqrt(5.0), weight=1.0),)),
        DensityModel((GaussianComponent(mean=1.0, stddev=1.0, weight=1.0),)),
    )


class TestGaussianPairsBuildNoGrid:
    """A single-Gaussian pair is ranked, labelled and classified in closed form: it builds no search grid."""

    @pytest.mark.parametrize("make", [_fresh_example2, _fresh_asym], ids=["example2", "asym"])
    def test_no_call_builds_a_grid(self, make, monkeypatch):
        slopes = []
        real = likelihood._log_pdf_slope
        monkeypatch.setattr(likelihood, "_log_pdf_slope", lambda *args: slopes.append(args) or real(*args))
        spec = make()
        design = solve(spec)
        assert len(design.thresholds) == 2
        assert not predict_single_threshold(spec)
        assert classify_monotonicity(spec).verdict is Monotonicity.NON_MONOTONIC
        single = level_functionals(spec, design.a_star)
        batch = level_functionals(spec, [0.2, design.a_star, 0.5])
        assert batch[1] == single and single.roots == design.thresholds
        assert stationarity(spec, [0.2, 0.5]).tolist() == [batch[0].stationarity_value, batch[2].stationarity_value]
        assert stationarity(spec, 0.2) == batch[0].stationarity_value
        sweep_levels(spec, SWEEP_LEVELS)
        assert all(check.passed for check in structural_checks(spec).values())
        translate_log_concavity(spec)
        assert spec._grids == {}
        assert slopes == []

    @pytest.mark.parametrize("grid_points", [32, 2**20 + 1])
    def test_grid_points_are_checked_without_a_grid(self, grid_points):
        spec = _fresh_example2()
        for call in (find_level_set, level_functionals, stationarity):
            for level in (0.3, [0.3]):
                with pytest.raises(InvalidSpecError, match="grid_points must lie in"):
                    call(spec, level, grid_points)
        for call in (classify_monotonicity, translate_log_concavity):
            with pytest.raises(InvalidSpecError, match="grid_points must lie in"):
                call(spec, grid_points)
        assert spec._grids == {}


def _reference_root_counts(spec, levels):
    """Sign changes of log r - t(a) at each level a, scanned with scipy on a fine grid.

    Shares no code with the library: the log-densities come from the Gaussian
    formula and ``scipy.special.logsumexp``, on points 1e-3 apart over the
    window, and 1/64 stddev apart over mean +- 64 stddevs of every component
    narrower than 0.05.  u = a exactly where log r = log(p1/p0) + log((1 - a)/a).
    """
    lo, hi = spec.search_lo, spec.search_hi
    comps = spec.density0.components + spec.density1.components
    points = [np.arange(lo, hi, 1e-3), [hi]]
    points += [np.linspace(c.mean - 64 * c.stddev, c.mean + 64 * c.stddev, 8193) for c in comps if c.stddev < 0.05]
    y = np.unique(np.concatenate(points))

    def log_density(model):
        comps = model.components
        terms = [-0.5 * ((y - c.mean) / c.stddev) ** 2 - math.log(c.stddev * math.sqrt(2.0 * math.pi)) for c in comps]
        return logsumexp(terms, axis=0, b=np.array([[c.weight] for c in comps]))

    log_r = log_density(spec.density0) - log_density(spec.density1)
    p0 = spec.prior.p0
    counts = []
    for a in levels:
        above = log_r > math.log((1.0 - p0) / p0) + math.log((1.0 - a) / a)
        counts.append(int(np.count_nonzero(above[1:] != above[:-1])))
    return counts


def _meets_the_stop_rule(spec, level, roots):
    """|u - level| <= 1e-12 at each root, or a sign change of u - level within 1e-12 of it."""
    roots = np.asarray(roots)
    near = np.abs(posterior(spec, roots) - level) <= 1e-12
    across = (posterior(spec, roots - 1e-12) - level) * (posterior(spec, roots + 1e-12) - level) <= 0.0
    return bool(np.all(near | across))


class TestPolishRobustness:
    """The slope only steers the polishing: the bracket and |u - a| decide where it stops."""

    @pytest.mark.parametrize("name", ROOT_COUNT_CHANNELS)
    def test_root_counts_and_stop_rule_at_99_levels(self, name):
        spec = _root_count_channel(name)
        u = _search_grid(spec, 4096).u
        sets = find_level_set(spec, SWEEP_LEVELS)
        counts = [len(ls.roots) for ls in sets]
        # a narrow component hides roots from the uniform grid: the grid adds points over it
        assert counts == _reference_root_counts(spec, SWEEP_LEVELS)
        if name in PINNED_ROOT_COUNTS:
            assert sum(counts) == PINNED_ROOT_COUNTS[name]
        for ls in sets:
            # one root per cell whose ends lie on the two sides of the level
            assert len(ls.roots) == np.count_nonzero((u[:-1] < ls.level) != (u[1:] < ls.level))
            assert _meets_the_stop_rule(spec, ls.level, ls.roots)

    @pytest.mark.parametrize(
        "distort",
        [lambda d: 10.0 * d, lambda d: -d, np.zeros_like, lambda d: np.full_like(d, np.nan)],
        ids=["scaled_by_10", "negated", "zero", "nan"],
    )
    @pytest.mark.parametrize("name", ["mixture_two_peaks", "mixture_two_peaks_sd3e-4", "solve-3-mix04"])
    def test_wrong_slopes_cost_steps_not_roots(self, name, distort):
        spec = _root_count_channel(name)
        grid = _search_grid(spec, 4096)
        expected = find_level_set(spec, SWEEP_LEVELS)
        spec._grids[4096] = grid._replace(du=distort(grid.du))
        sets = find_level_set(spec, SWEEP_LEVELS)
        for ls, want in zip(sets, expected):
            assert len(ls.roots) == len(want.roots)
            assert _meets_the_stop_rule(spec, ls.level, ls.roots)
            np.testing.assert_allclose(ls.roots, want.roots, rtol=0.0, atol=1e-9)
