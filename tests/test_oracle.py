"""Brute-force oracle: grid search, level sweeps, and structural checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant import (
    ChannelMatrix,
    DensityModel,
    GaussianComponent,
    InvalidSpecError,
    cdf,
    channel_matrix,
    channel_spec,
    grid_search,
    level_functionals,
    structural_checks,
    mutual_information,
    Prior,
    solve,
    sweep_levels,
)
from binquant import channel, likelihood, oracle
from binquant.channel import _mi_bits
from tests.conftest import fresh_copy


def _grid_cdfs(spec, grid_step):
    count = int(math.floor((spec.search_hi - spec.search_lo) / grid_step + 1e-9)) + 1
    grid = spec.search_lo + grid_step * np.arange(count)
    return count, grid, cdf(spec.density0, grid), cdf(spec.density1, grid)


def _brute_force_one(spec, grid_step):
    """The best n = 1 tuple by a plain loop, first maximum kept."""
    count, grid, c0, c1 = _grid_cdfs(spec, grid_step)
    best_mi, best, n_evaluated = -np.inf, (), 0
    for k in range(count):
        mi = _mi_bits(spec.prior.p0, c0[k], 1.0 - c1[k])
        n_evaluated += 1
        if mi > best_mi:
            best_mi, best = mi, (k,)
    return tuple(float(grid[k]) for k in best), n_evaluated


def _brute_force_two(spec, grid_step):
    """The best n = 2 tuple by a plain double loop, first maximum kept.

    [h_j, h_k) goes to Z=0, the label mapping under which ``grid_search``
    scores, so that exact ties break the same way.  The inner loop over k
    runs as one array expression, whose first maximum is the smallest k.
    """
    count, grid, c0, c1 = _grid_cdfs(spec, grid_step)
    best_mi, best, n_evaluated = -np.inf, (), 0
    for j in range(count - 1):
        ks = np.arange(j + 1, count)
        mi = _mi_bits(spec.prior.p0, c0[ks] - c0[j], c1[j] + (1.0 - c1[ks]))
        n_evaluated += ks.size
        if mi.max() > best_mi:
            best_mi, best = mi.max(), (j, int(ks[np.argmax(mi)]))
    return tuple(float(grid[k]) for k in best), n_evaluated


def _brute_force_three(spec, grid_step):
    """The best n = 3 tuple by a plain triple loop, first maximum kept.

    The inner loop over k runs as one array expression, as in
    :func:`_brute_force_two`.
    """
    count, grid, c0, c1 = _grid_cdfs(spec, grid_step)
    best_mi, best, n_evaluated = -np.inf, (), 0
    for i in range(count - 2):
        for j in range(i + 1, count - 1):
            ks = np.arange(j + 1, count)
            a11 = c0[i] + (c0[ks] - c0[j])
            a22 = (c1[j] - c1[i]) + (1.0 - c1[ks])
            mi = _mi_bits(spec.prior.p0, a11, a22)
            n_evaluated += ks.size
            if mi.max() > best_mi:
                best_mi, best = mi.max(), (i, j, int(ks[np.argmax(mi)]))
    return tuple(float(grid[k]) for k in best), n_evaluated


BRUTE_FORCE = {1: _brute_force_one, 2: _brute_force_two, 3: _brute_force_three}


def _exact_mi(spec, thresholds):
    return max(
        mutual_information(spec.prior, channel_matrix(spec, thresholds, mapping))
        for mapping in ("odd_to_zero", "even_to_zero")
    )


def _assert_equals_plain_loops(spec, n, grid_step):
    result = grid_search(spec, n, grid_step)
    thresholds, n_evaluated = BRUTE_FORCE[n](spec, grid_step)
    assert result.best_thresholds == thresholds
    assert result.best_mi_bits == _exact_mi(spec, thresholds)
    assert result.n_evaluated == n_evaluated


def _mixture(components):
    """A mixture of (mean, stddev, raw weight) triples, weights normalized."""
    total = math.fsum(w for _, _, w in components)
    weights = [w / total for _, _, w in components[:-1]]
    weights.append(1.0 - math.fsum(weights))
    return DensityModel(
        components=tuple(GaussianComponent(m, s, w) for (m, s, _), w in zip(components, weights))
    )


_COMPONENTS = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.3, 2.5), st.floats(0.2, 1.0)), min_size=1, max_size=3
)


class TestGridSearch:
    def test_symmetric_single_threshold(self, example1_spec):
        result = grid_search(example1_spec, 1, 0.01)
        assert abs(result.best_thresholds[0]) <= 0.01
        design = solve(example1_spec)
        assert abs(design.mi_bits - result.best_mi_bits) <= 1e-4

    def test_result_mi_is_exact_at_its_thresholds(self, example2_spec):
        result = grid_search(example2_spec, 1, 0.05)
        recomputed = max(
            mutual_information(
                example2_spec.prior,
                channel_matrix(example2_spec, result.best_thresholds, "odd_to_zero"),
            ),
            mutual_information(
                example2_spec.prior,
                channel_matrix(example2_spec, result.best_thresholds, "even_to_zero"),
            ),
        )
        assert result.best_mi_bits == recomputed

    def test_thresholds_lie_on_the_grid(self, example2_spec):
        result = grid_search(example2_spec, 2, 0.05)
        for h in result.best_thresholds:
            steps = (h - example2_spec.search_lo) / 0.05
            assert abs(steps - round(steps)) <= 1e-9

    def test_two_thresholds_beat_one(self, example2_spec):
        one = grid_search(example2_spec, 1, 0.02)
        two = grid_search(example2_spec, 2, 0.02)
        assert two.best_mi_bits >= one.best_mi_bits + 1e-3

    def test_flat_channel_carries_nothing(self, flat_spec):
        # tuples differ only by ~1e-17 entropy rounding crumbs here, so the
        # winning threshold is arbitrary; only the value is meaningful
        result = grid_search(flat_spec, 1, 0.1)
        assert result.best_mi_bits <= 1e-12

    def test_three_threshold_path(self, example1_spec):
        # a third threshold cannot beat the single-threshold optimum here
        three = grid_search(example1_spec, 3, 0.5)
        one = grid_search(example1_spec, 1, 0.5)
        assert three.best_mi_bits >= one.best_mi_bits - 1e-12

    @pytest.mark.parametrize(
        "name, step, n",
        [
            pytest.param("example2_spec", 1.5, 3, id="example2_spec-1.5"),
            pytest.param("fig5_spec", 2.0, 3, id="fig5_spec-2.0"),
            pytest.param("example2_spec", 0.25, 2, id="n2-example2_spec-0.25"),
            pytest.param("fig5_spec", 0.5, 2, id="n2-fig5_spec-0.5"),
        ],
    )
    def test_three_thresholds_match_a_triple_loop(self, name, step, n, request):
        _assert_equals_plain_loops(request.getfixturevalue(name), n, step)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        p0=st.floats(0.1, 0.9),
        components0=_COMPONENTS,
        components1=_COMPONENTS,
        points=st.integers(20, 120),
        n=st.sampled_from([1, 2, 3]),
    )
    def test_equals_plain_loops(self, p0, components0, components1, points, n):
        spec = channel_spec(Prior(p0=p0), _mixture(components0), _mixture(components1))
        if n == 1:
            points *= 10  # a one-threshold tile spans 128 points; span several
        _assert_equals_plain_loops(spec, n, (spec.search_hi - spec.search_lo) / (points - 1))

    @pytest.mark.parametrize(
        "n, points",
        [
            # a last block of one point, a grid inside one block, and whole blocks only
            *[pytest.param(n, points, id=f"n{n}-one-point-last-block") for n, points in ((1, 257), (2, 17), (3, 9))],
            *[pytest.param(n, points, id=f"n{n}-under-one-block") for n, points in ((1, 50), (2, 5), (3, 3))],
            *[pytest.param(n, points, id=f"n{n}-whole-blocks") for n, points in ((1, 256), (2, 16), (3, 8))],
        ],
    )
    @pytest.mark.parametrize("name", ["example2_spec", "fig5_spec", "flat_spec"])
    def test_block_edges_equal_plain_loops(self, name, n, points, request):
        spec = request.getfixturevalue(name)
        step = (spec.search_hi - spec.search_lo) / (points - 1)
        assert oracle.grid_size(spec, n, step) == points
        _assert_equals_plain_loops(spec, n, step)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flat_channel_ties_break_like_plain_loops(self, flat_spec, n):
        # every score is 0 or a ~1e-17 rounding crumb, so no tile is pruned
        # and the first maximum decides
        _assert_equals_plain_loops(flat_spec, n, 0.25)

    def test_tail_ties_break_like_plain_loops(self, example1_spec):
        # tuples that differ only in a threshold deep in a tail score the same
        _assert_equals_plain_loops(example1_spec, 3, 0.5)

    def test_rejects_bad_arguments(self, example1_spec):
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 4, 0.1)
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 0, 0.1)
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 1, 0.0)
        for step in (math.inf, math.nan):
            with pytest.raises(InvalidSpecError, match="grid_step"):
                grid_search(example1_spec, 1, step)

    def test_grid_over_the_budget_is_rejected_before_allocating(
        self, example1_spec, example2_spec, monkeypatch
    ):
        # the benchmark's oracle grids on example2 and the README's n = 2 example fit the budget
        width = example2_spec.search_hi - example2_spec.search_lo
        for n, points in ((1, 100_001), (2, 1001), (3, 81)):
            assert oracle.grid_size(example2_spec, n, width / (points - 1)) == points
        assert oracle.grid_size(example2_spec, 2, 0.02) == 2337

        def fail(*_):
            raise AssertionError("an oversized grid got past the budget check")

        monkeypatch.setattr(oracle, "_blocks", fail)
        # 28.0 M tiles of 3 thresholds; 2.2e13 points; a window over the step that is inf
        for n, step in ((3, 0.01), (1, 1e-12), (1, 5e-324)):
            with pytest.raises(InvalidSpecError, match="grid_step .* too fine"):
                grid_search(example1_spec, n, step)

    @pytest.mark.parametrize("n, points", [(1, 100_001), (2, 1001), (3, 81)])
    def test_few_scoring_calls(self, example2_spec, n, points, monkeypatch):
        # the tile of the highest bound alone, then full chunks of the tiles
        # that can reach its score
        calls = []
        real_mi_bits = oracle._mi_bits
        monkeypatch.setattr(oracle, "_mi_bits", lambda *args: calls.append(1) or real_mi_bits(*args))
        step = (example2_spec.search_hi - example2_spec.search_lo) / (points - 1)
        assert oracle.grid_size(example2_spec, n, step) == points
        grid_search(example2_spec, n, step)
        assert len(calls) <= 3

    def test_evaluation_count(self, example1_spec):
        result = grid_search(example1_spec, 1, 0.01)
        assert result.n_evaluated == 2201  # 22-wide window, step 0.01, inclusive

    def test_solver_agreement(self, example1_spec, example2_spec, asym_spec):
        for spec, n, step in [
            (example1_spec, 1, 0.01),
            (example2_spec, 2, 0.02),
            (asym_spec, 2, 0.02),
        ]:
            design = solve(spec)
            oracle = grid_search(spec, n, step)
            assert design.mi_bits >= oracle.best_mi_bits - 1e-4


def _block_end_cdfs(c0, c1, starts, ends):
    """The ``(c0, c1)`` CDF values at each block's first and at its last point."""
    return (c0[starts], c1[starts]), (c0[ends], c1[ends])


class TestTileBounds:
    @pytest.mark.parametrize("name", ["example2_spec", "fig5_spec", "two_peaks_spec"])
    @pytest.mark.parametrize("n, points", [(1, 600), (2, 120), (3, 40)])
    def test_every_tile_is_bounded(self, name, n, points, request):
        spec = request.getfixturevalue(name)
        count, _, c0, c1 = _grid_cdfs(spec, (spec.search_hi - spec.search_lo) / (points - 1))
        starts, ends = oracle._blocks(count, n)
        blocks, bound = oracle._tile_bounds(spec.prior.p0, *_block_end_cdfs(c0, c1, starts, ends), starts, ends, n)
        # every increasing tuple, scored as grid_search scores it; a missing
        # leading threshold indexes an appended CDF value of 0.0
        tuples = np.array(list(itertools.combinations(range(count), n))).T
        i, j, k = [np.full(tuples.shape[1], count)] * (3 - n) + list(tuples)
        c0_at, c1_at = np.append(c0, 0.0), np.append(c1, 0.0)
        a11 = c0_at[i] + (c0_at[k] - c0_at[j])
        a22 = (c1_at[j] - c1_at[i]) + (1.0 - c1_at[k])
        mi = _mi_bits(spec.prior.p0, a11, a22)
        # the tile of each tuple
        tile_of = np.full((starts.size,) * n, -1)
        tile_of[tuple(blocks)] = np.arange(bound.size)
        tile = tile_of[tuple(np.searchsorted(starts, tuples, side="right") - 1)]
        assert np.all(tile >= 0)
        best_in_tile = np.full(bound.size, -np.inf)
        np.maximum.at(best_in_tile, tile, mi)
        assert np.all(np.isfinite(best_in_tile))  # no tile is empty
        assert np.all(best_in_tile <= bound + oracle._SLACK_BITS)

    @pytest.mark.parametrize("name", ["example2_spec", "fig5_spec", "two_peaks_spec"])
    @pytest.mark.parametrize("n, points", [(1, 3000), (2, 400), (3, 120)])
    def test_bound_is_the_largest_mi_at_four_corners(self, name, n, points, request):
        spec = request.getfixturevalue(name)
        count, _, c0, c1 = _grid_cdfs(spec, (spec.search_hi - spec.search_lo) / (points - 1))
        starts, ends = oracle._blocks(count, n)
        blocks, bound = oracle._tile_bounds(spec.prior.p0, *_block_end_cdfs(c0, c1, starts, ends), starts, ends, n)
        # the CDFs at the start and at the end of each threshold's block; a
        # missing leading threshold sits at -inf, where both CDFs are 0
        at = [np.zeros((2, 2, blocks.shape[1]))] * (3 - n) + [
            np.array([[c0[starts[b]], c1[starts[b]]], [c0[ends[b]], c1[ends[b]]]]) for b in blocks
        ]
        (i0, i1), (j0, j1), (k0, k1) = [(s[:, 0], s[:, 1]) for s in at]  # (block start, end) per CDF
        # a11 = c0(i) + c0(k) - c0(j) is high with i, k at their block ends and
        # j at its start; a22 = c1(j) - c1(i) + 1 - c1(k) the other way round
        a11 = [np.clip(i0[e] + (k0[e] - j0[1 - e]), 0.0, 1.0) for e in (0, 1)]
        a22 = [np.clip((j1[e] - i1[1 - e]) + (1.0 - k1[1 - e]), 0.0, 1.0) for e in (0, 1)]
        p0 = spec.prior.p0
        want = np.maximum(
            np.maximum(_mi_bits(p0, a11[0], a22[0]), _mi_bits(p0, a11[0], a22[1])),
            np.maximum(_mi_bits(p0, a11[1], a22[0]), _mi_bits(p0, a11[1], a22[1])),
        )
        assert bound.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "name, n, points",
        [
            # no tile of the flat channel is pruned, so every scoring chunk is full
            *[("flat_spec", n, points) for n, points in ((1, 20_001), (2, 401), (3, 81))],
            # the tile arrays outgrow the chunks
            *[("fig5_spec", n, points) for n, points in ((1, 100_001), (2, 1001), (3, 161))],
            *[("fig5_spec", n, points) for n, points in ((1, 1_000_001), (2, 4001), (3, 401))],
        ],
    )
    def test_peak_memory_is_within_the_counted_bytes(self, name, n, points, request):
        spec = request.getfixturevalue(name)
        step = (spec.search_hi - spec.search_lo) / (points - 1)
        assert oracle.grid_size(spec, n, step) == points
        tracemalloc.start()
        try:
            grid_search(spec, n, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._search_bytes(spec, points, n)

    @pytest.mark.parametrize("n, step", [(1, 0.0005), (2, 0.02), (3, 0.25)])
    def test_search_stays_small(self, example2_spec, n, step):
        tracemalloc.start()
        try:
            grid_search(example2_spec, n, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_one_threshold_cdf_points(self, example2_spec, monkeypatch):
        # block ends and the blocks of the few tiles near the peak, for both
        # densities together: not the grid
        points = []
        real_cdf = oracle.cdf
        monkeypatch.setattr(oracle, "cdf", lambda model, y: points.append(np.size(y)) or real_cdf(model, y))
        result = grid_search(example2_spec, 1, 0.0005)
        assert sum(points) < result.n_evaluated / 8


class TestSweep:
    def test_symmetric_sweep_peaks_at_half(self, example1_spec):
        levels = np.linspace(0.01, 0.99, 99)
        rows = sweep_levels(example1_spec, levels)
        mi = np.array([r.mi_bits for r in rows])
        assert levels[int(np.argmax(mi))] == pytest.approx(0.5, abs=0.011)
        # unimodal: once the column starts falling it never rises again
        d = np.diff(mi)
        falling = np.nonzero(d < -1e-12)[0]
        assert falling.size and np.all(d[falling[0]:] <= 1e-12)

    def test_unequal_variance_peak_matches_solver(self, example2_spec):
        levels = np.linspace(0.01, 0.99, 99)
        rows = sweep_levels(example2_spec, levels)
        mi = np.array([r.mi_bits for r in rows])
        a_star = solve(example2_spec).a_star
        assert abs(levels[int(np.argmax(mi))] - a_star) <= 0.011

    def test_stationarity_column_changes_sign_once(self, example2_spec):
        rows = sweep_levels(example2_spec, np.linspace(0.01, 0.99, 99))
        values = [r.stationarity_value for r in rows if not r.degenerate]
        changes = sum(1 for a, b in zip(values, values[1:]) if a * b < 0)
        assert changes == 1

    def test_stationarity_column_non_increasing_unimodal(self, example2_spec, asym_spec):
        # single-extremum posteriors: F decreases through its zero
        for spec in (example2_spec, asym_spec):
            rows = sweep_levels(spec, np.linspace(0.05, 0.95, 19))
            values = [r.stationarity_value for r in rows if not r.degenerate]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_stationarity_column_single_crossing_multimodal(self, fig5_spec):
        # the three-bump posterior makes F jump upward at each level where a
        # new dip joins the level set, but it still crosses zero exactly once
        rows = sweep_levels(fig5_spec, np.linspace(0.05, 0.95, 19))
        values = [r.stationarity_value for r in rows if not r.degenerate]
        crossings = sum(1 for a, b in zip(values, values[1:]) if a * b < 0)
        assert crossings == 1
        rises = sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-9)
        assert rises > 0  # documents the non-monotonicity

    def test_degenerate_rows_flagged_not_dropped(self, example2_spec):
        rows = sweep_levels(example2_spec, [0.5, 0.85, 0.95])
        assert len(rows) == 3
        assert not rows[0].degenerate
        assert rows[1].degenerate and np.isnan(rows[1].stationarity_value)
        assert rows[2].degenerate

    def test_three_bump_root_count_at_half(self, fig5_spec):
        (row,) = sweep_levels(fig5_spec, [0.5])
        assert row.n_roots == 6


class TestBatchedOracle:
    def test_sweep_rows_equal_each_level_alone(self, fig5_spec, two_peaks_spec):
        levels = np.linspace(0.01, 0.99, 99)[::-1]
        for spec in (fig5_spec, two_peaks_spec):
            alone = fresh_copy(spec)
            for a, row in zip(levels, sweep_levels(spec, levels)):
                fn = level_functionals(alone, float(a))
                mi = mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1))
                assert (row.level, row.correct0, row.correct1, row.mi_bits, row.n_roots) == (
                    fn.level, fn.correct0, fn.correct1, mi, len(fn.roots)
                )
                assert row.degenerate == math.isnan(fn.stationarity_value)
                assert row.degenerate or row.stationarity_value == fn.stationarity_value

    def test_one_batch_per_sweep_and_per_check(self, fig5_spec, monkeypatch):
        batches, posterior_calls = [], []
        real_batch, real_posterior = oracle._level_batch, likelihood.posterior
        monkeypatch.setattr(
            oracle, "_level_batch",
            lambda spec, levels, *args: batches.append(len(levels)) or real_batch(spec, levels, *args),
        )
        monkeypatch.setattr(
            likelihood, "posterior", lambda spec, y: posterior_calls.append(np.size(y)) or real_posterior(spec, y)
        )
        # the batches are read as arrays: no level set or level functionals object per level
        for module, name in ((channel, "LevelFunctionals"), (likelihood, "LevelSet")):
            monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"built a {name}"))
        sweep_levels(fig5_spec, np.linspace(0.01, 0.99, 99))
        structural_checks(fig5_spec)
        assert batches == [99, 57]
        # one posterior call per polishing round of all brackets together
        assert len(posterior_calls) <= 20

    def test_a_999_level_sweep_stays_small(self, fig5_spec):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        tracemalloc.start()
        try:
            rows = sweep_levels(spec, np.linspace(0.001, 0.999, 999))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 999
        assert peak < 8 * 2**20


_SHIPPED_SPECS = ("example1_spec", "example2_spec", "fig5_spec", "two_peaks_spec")


def _failed_checks(request):
    """Names of the structural checks that fail, per shipped channel.

    Each check runs on a fresh copy of the shared fixture, so that the level
    sets of a batch made under a monkeypatch stay off the shared spec.
    """
    return [
        sorted(c.name for c in structural_checks(fresh_copy(request.getfixturevalue(name))).values() if not c.passed)
        for name in _SHIPPED_SPECS
    ]


class TestStructuralChecks:
    def test_all_pass_on_example_channels(self, example1_spec, example2_spec, fig5_spec):
        for spec in (example1_spec, example2_spec, fig5_spec):
            checks = structural_checks(spec)
            assert set(checks) == {"monotone_masses", "derivative_relation", "stationarity_slope_sign"}
            for check in checks.values():
                assert check.passed, f"{check.name}: worst={check.worst_violation}"

    # each check must fail when the quantity it checks is broken

    def test_negated_stationarity_fails_the_slope_sign(self, request, monkeypatch):
        real = channel._stationarity_from_masses
        monkeypatch.setattr(channel, "_stationarity_from_masses", lambda *args: -real(*args))
        assert all("stationarity_slope_sign" in failed for failed in _failed_checks(request))

    def test_roots_of_a_nearby_level_fail_the_derivative_relation(self, request, monkeypatch):
        # each level gets the roots of level + 1e-3
        real = likelihood._level_roots
        monkeypatch.setattr(likelihood, "_level_roots", lambda spec, levels, n: real(spec, levels + 1e-3, n))
        assert all("derivative_relation" in failed for failed in _failed_checks(request))

    def test_swapped_masses_fail_monotonicity(self, request, monkeypatch):
        real = channel._correct_masses
        monkeypatch.setattr(channel, "_correct_masses", lambda *args: real(*args)[::-1])
        assert all("monotone_masses" in failed for failed in _failed_checks(request))

    def test_symmetric_channel_violations_are_tiny(self, example1_spec):
        checks = structural_checks(example1_spec)
        assert all(c.worst_violation <= 1e-6 for c in checks.values())

    def test_asymmetric_prior_passes(self, asym_spec):
        assert all(c.passed for c in structural_checks(asym_spec).values())
