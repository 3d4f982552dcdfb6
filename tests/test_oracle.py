"""Brute-force oracle: grid search, level sweeps, and structural checks."""

import math
import tracemalloc

import numpy as np
import pytest

from binquant import (
    ChannelMatrix,
    InvalidSpecError,
    cdf,
    channel_matrix,
    channel_spec,
    grid_search,
    level_functionals,
    structural_checks,
    mutual_information,
    solve,
    sweep_levels,
)
from binquant import likelihood, oracle
from binquant.channel import _mi_bits


def _grid_cdfs(spec, grid_step):
    count = int(math.floor((spec.search_hi - spec.search_lo) / grid_step + 1e-9)) + 1
    grid = spec.search_lo + grid_step * np.arange(count)
    return count, grid, cdf(spec.density0, grid), cdf(spec.density1, grid)


def _brute_force_three(spec, grid_step):
    """The best n = 3 tuple by a plain triple loop, first maximum kept."""
    count, grid, c0, c1 = _grid_cdfs(spec, grid_step)
    best_mi, best, n_evaluated = -np.inf, (), 0
    for i in range(count):
        for j in range(i + 1, count):
            for k in range(j + 1, count):
                a11 = c0[i] + (c0[k] - c0[j])
                a22 = (c1[j] - c1[i]) + (1.0 - c1[k])
                mi = _mi_bits(spec.prior.p0, a11, a22)
                n_evaluated += 1
                if mi > best_mi:
                    best_mi, best = mi, (i, j, k)
    return tuple(float(grid[k]) for k in best), n_evaluated


def _brute_force_two(spec, grid_step):
    """The best n = 2 tuple by a plain double loop under ``odd_to_zero``."""
    count, grid, c0, c1 = _grid_cdfs(spec, grid_step)
    best_mi, best, n_evaluated = -np.inf, (), 0
    for j in range(count):
        for k in range(j + 1, count):
            a11 = c0[j] + (1.0 - c0[k])
            a22 = c1[k] - c1[j]
            mi = _mi_bits(spec.prior.p0, a11, a22)
            n_evaluated += 1
            if mi > best_mi:
                best_mi, best = mi, (j, k)
    return tuple(float(grid[k]) for k in best), n_evaluated


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
        # grid_search scores n = 2 as n = 3 with an empty first segment; the
        # double loop scores it directly, under the other label mapping
        spec = request.getfixturevalue(name)
        result = grid_search(spec, n, step)
        brute_force = _brute_force_three if n == 3 else _brute_force_two
        thresholds, n_evaluated = brute_force(spec, step)
        assert result.best_thresholds == thresholds
        assert result.n_evaluated == n_evaluated

    def test_rejects_bad_arguments(self, example1_spec):
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 4, 0.1)
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 0, 0.1)
        with pytest.raises(InvalidSpecError):
            grid_search(example1_spec, 1, 0.0)

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
            for a, row in zip(levels, sweep_levels(spec, levels)):
                fn = level_functionals(spec, float(a))
                mi = mutual_information(spec.prior, ChannelMatrix(fn.correct0, fn.correct1))
                assert (row.level, row.correct0, row.correct1, row.mi_bits, row.n_roots) == (
                    fn.level, fn.correct0, fn.correct1, mi, len(fn.roots)
                )
                assert row.degenerate == math.isnan(fn.stationarity_value)
                assert row.degenerate or row.stationarity_value == fn.stationarity_value

    def test_one_batch_per_sweep_and_per_check(self, fig5_spec, monkeypatch):
        batches, posterior_calls = [], []
        real_batch, real_posterior = oracle.level_functionals_batch, likelihood.posterior
        monkeypatch.setattr(
            oracle, "level_functionals_batch",
            lambda spec, levels, *args: batches.append(len(levels)) or real_batch(spec, levels, *args),
        )
        monkeypatch.setattr(
            likelihood, "posterior", lambda spec, y: posterior_calls.append(np.size(y)) or real_posterior(spec, y)
        )
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


class TestStructuralChecks:
    def test_all_pass_on_example_channels(self, example1_spec, example2_spec, fig5_spec):
        for spec in (example1_spec, example2_spec, fig5_spec):
            checks = structural_checks(spec)
            assert set(checks) == {
                "monotone_masses",
                "mass_sum_lower_bound",
                "derivative_relation",
                "crossterm_product_bound",
                "stationarity_single_crossing",
            }
            for check in checks.values():
                assert check.passed, f"{check.name}: worst={check.worst_violation}"

    def test_symmetric_channel_violations_are_tiny(self, example1_spec):
        checks = structural_checks(example1_spec)
        assert all(c.worst_violation <= 1e-6 for c in checks.values())

    def test_asymmetric_prior_passes(self, asym_spec):
        assert all(c.passed for c in structural_checks(asym_spec).values())

    def test_rejects_fd_step_leaving_unit_interval(self, example1_spec):
        with pytest.raises(InvalidSpecError):
            structural_checks(example1_spec, levels=[0.5], fd_step=0.6)
