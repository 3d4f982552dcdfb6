"""Induced channel matrix, mutual information, level functionals, stationarity."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant import (
    ChannelMatrix,
    find_level_set,
    posterior,
    DegenerateChannelError,
    InvalidSpecError,
    LevelFunctionals,
    Prior,
    QuantizerError,
    channel_matrix,
    channel_spec,
    level_functionals,
    mutual_information,
    stationarity,
)
from binquant import channel, likelihood
from binquant.channel import DEGENERACY_EPS, _h2, _mi_bits
from tests.conftest import BATCH_SPECS, batch_levels, fresh_copy

PHI_1 = 0.8413447460685429
EX1_MI = 0.3689172325944581
# masses at the quoted threshold pair (-0.5374, 3.5374), mpmath.  The pair is
# the level set u(y) = 0.412 of example2, not its optimal design: the optimum
# is a* = EX2_A_STAR with 0.2613828 bits (tests/test_solver.py).
QUOTED_A11 = 0.6031682311650414
QUOTED_A22 = 0.9323183433489574
QUOTED_MI = 0.2572337701445018
# stationarity values of the unequal-variance channel, mpmath
EX2_F_AT_02 = 0.322037244142
EX2_F_AT_06 = -0.818761998518
EX2_A_STAR = 0.3205528447713517

#: Floats in (0, 1): anywhere, subnormal, and within 2^-33 of 1.
_UNIT = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(math.ulp(0.0), sys.float_info.min),
    st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53),
)
#: Masses outside (0, 1) that rounded sums produce, whose entropy is 0.
_OUTSIDE = st.sampled_from([0.0, 1.0, math.nextafter(1.0, 2.0), -1e-300, -0.0, 1.5])


#: Posterior levels inside (0, 1), and masses anywhere in [0, 1] or within DEGENERACY_EPS of either end.
_LEVEL = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_MASS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * DEGENERACY_EPS),
    st.floats(0.0, 2.0 * DEGENERACY_EPS).map(lambda d: 1.0 - d),
)


def _formula_F(p0: float, a: float, f: float, g: float) -> float:
    """F(a) by the formula of ``stationarity``'s docstring, one level on ``math.log``."""
    p1, r = 1.0 - p0, a / (1.0 - a)
    q0, q1 = p0 * f + p1 * (1.0 - g), p0 * (1.0 - f) + p1 * g
    return math.log(f / (1.0 - f)) - r * math.log(g / (1.0 - g)) - (1.0 + r) * math.log(q0 / q1)


def _h2_mpmath(w: float) -> float:
    """H2 of the float w, in bits, at 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(w)
        return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


_NON_FINITE = [math.nan, math.inf, -math.inf]


def _h2_masked(w):
    """H2 by the formula with a mask and a ``where`` select, the reference for ``_h2``'s in-place kernel."""
    w = np.asarray(w, dtype=float)
    v = 1.0 - w
    with np.errstate(divide="ignore", invalid="ignore"):
        h = w * np.log2(w)
        h += v * np.log2(v)
    return np.where((w > 0.0) & (v > 0.0), -h, 0.0)


def _assert_h2_is_the_masked_formula(w):
    got, want = _h2(w), _h2_masked(w)
    assert type(got) is type(want) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got))  # never -0.0


class TestChannelMatrix:
    def test_single_threshold_symmetric(self, example1_spec):
        cm = channel_matrix(example1_spec, (0.0,), "odd_to_zero")
        assert cm.a11 == pytest.approx(PHI_1, abs=1e-12)
        assert cm.a22 == pytest.approx(PHI_1, abs=1e-12)

    def test_quoted_two_threshold_matrix(self, example2_spec):
        cm = channel_matrix(example2_spec, (-0.5374, 3.5374), "odd_to_zero")
        assert cm.a11 == pytest.approx(QUOTED_A11, abs=1e-12)
        assert cm.a22 == pytest.approx(QUOTED_A22, abs=1e-12)

    def test_no_thresholds_is_constant_quantizer(self, example2_spec, fig5_spec):
        for spec in (example2_spec, fig5_spec):
            cm = channel_matrix(spec, (), "odd_to_zero")
            assert (cm.a11, cm.a22) == (1.0, 0.0)

    def test_constant_quantizer_makes_no_cdf_call(self, example2_spec, fig5_spec, monkeypatch):
        calls = []
        real_cdf = channel.cdf
        monkeypatch.setattr(channel, "cdf", lambda *args: calls.append(args) or real_cdf(*args))
        for spec in (example2_spec, fig5_spec):
            odd = channel_matrix(spec, (), "odd_to_zero")
            even = channel_matrix(spec, (), "even_to_zero")
            assert (odd.a11, odd.a22, even.a11, even.a22) == (1.0, 0.0, 0.0, 1.0)
        assert calls == []
        # the counter does see the calls a non-empty threshold vector makes
        channel_matrix(example2_spec, (0.0,), "odd_to_zero")
        assert len(calls) == 2
        # as an array, which the benchmark's span wrapper counts as points
        assert all(isinstance(y, np.ndarray) and y.tolist() == [0.0] for _, y in calls)

    def test_mapping_swap_complements_the_matrix(self, example2_spec):
        odd = channel_matrix(example2_spec, (-0.5, 2.0), "odd_to_zero")
        even = channel_matrix(example2_spec, (-0.5, 2.0), "even_to_zero")
        assert even.a11 == pytest.approx(1.0 - odd.a11, abs=1e-12)
        assert even.a22 == pytest.approx(1.0 - odd.a22, abs=1e-12)

    def test_matrix_validation(self):
        with pytest.raises(InvalidSpecError):
            ChannelMatrix(a11=1.2, a22=0.5)
        with pytest.raises(InvalidSpecError):
            ChannelMatrix(a11=0.5, a22=-0.1)


class TestMutualInformation:
    def test_noiseless_channel_is_one_bit(self):
        assert mutual_information(Prior(0.5), ChannelMatrix(1.0, 1.0)) == 1.0

    def test_useless_channel_is_zero_bits(self):
        assert mutual_information(Prior(0.5), ChannelMatrix(0.5, 0.5)) == 0.0

    def test_symmetric_single_threshold_value(self):
        mi = mutual_information(Prior(0.5), ChannelMatrix(PHI_1, PHI_1))
        assert mi == pytest.approx(EX1_MI, abs=1e-12)

    def test_quoted_design_value(self):
        # MI of the level-0.412 pair, which is not the optimal design (0.2613828 bits)
        mi = mutual_information(Prior(0.5), ChannelMatrix(QUOTED_A11, QUOTED_A22))
        assert mi == pytest.approx(QUOTED_MI, abs=1e-12)

    def test_label_swap_invariance(self, fig5_spec):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                h = tuple(np.sort(rng.uniform(-8.0, 8.0, size=n)))
                mi_odd = mutual_information(
                    fig5_spec.prior, channel_matrix(fig5_spec, h, "odd_to_zero")
                )
                mi_even = mutual_information(
                    fig5_spec.prior, channel_matrix(fig5_spec, h, "even_to_zero")
                )
                assert mi_odd == pytest.approx(mi_even, abs=1e-12)

    def test_bounds(self, asym_spec):
        rng = np.random.default_rng(23)
        cap = mutual_information(asym_spec.prior, ChannelMatrix(1.0, 1.0))
        for _ in range(50):
            h = tuple(np.sort(rng.uniform(-10.0, 10.0, size=rng.integers(1, 5))))
            mi = mutual_information(asym_spec.prior, channel_matrix(asym_spec, h, "odd_to_zero"))
            assert 0.0 <= mi <= cap + 1e-12

    def test_binary_entropy_edges(self):
        assert _h2(0.0) == 0.0
        assert _h2(1.0) == 0.0
        assert _h2(0.5) == 1.0

    def test_binary_entropy_on_an_array_matches_scalars(self):
        w = np.array([0.0, 1e-300, 1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-9, 1.0])
        got = _h2(w)
        assert isinstance(got, np.ndarray) and got.shape == w.shape
        assert got.tolist() == [float(_h2(float(x))) for x in w]

    def test_binary_entropy_outside_the_unit_interval_is_zero(self):
        # grid-search masses such as c0[i] + 1 - c0[j] can round past 1
        assert _h2(np.nextafter(1.0, 2.0)) == 0.0
        assert _h2(-1e-300) == 0.0

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(w=_UNIT)
    def test_binary_entropy_is_accurate(self, w):
        assert abs(float(_h2(w)) - _h2_mpmath(w)) <= 4e-16

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(values=st.lists(st.one_of(_UNIT, _OUTSIDE), min_size=41, max_size=41))
    def test_binary_entropy_of_every_array_length_matches_scalars(self, values):
        # lengths 0 to 40 run through every tail of the vectorized log, at two alignments
        w = np.array(values)
        scalars = [float(_h2(x)) for x in values]
        for start in (0, 1):
            for length in range(41 - start):
                got = _h2(w[start : start + length])
                assert got.tolist() == scalars[start : start + length]

    @pytest.mark.parametrize(
        "w",
        [
            0.0, 1.0, -0.0, 0.5, 0.3, math.nextafter(1.0, 2.0), -1e-300, *_NON_FINITE,
            math.ulp(0.0), sys.float_info.min / 3, 1.0 - 2.0**-53, 2.0**-53,
            np.float64(0.2), np.array(0.7), np.array(math.nan), np.array(-0.0),
            np.array([0.0, 1.0, math.nextafter(1.0, 2.0), -1e-300, math.nan, math.ulp(0.0), 5e-310, 0.25]),
            np.linspace(-0.5, 1.5, 81).reshape(9, 9),
        ],
    )
    def test_binary_entropy_is_bit_identical_to_the_masked_formula(self, w):
        _assert_h2_is_the_masked_formula(w)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(values=st.lists(st.one_of(_UNIT, _OUTSIDE, st.floats(-1e300, 1e300), st.sampled_from(_NON_FINITE)), max_size=70))
    def test_binary_entropy_of_any_array_is_bit_identical_to_the_masked_formula(self, values):
        _assert_h2_is_the_masked_formula(np.array(values, dtype=float))

    def test_array_formula_matches_mutual_information(self, asym_spec):
        rng = np.random.default_rng(29)
        a11 = np.concatenate(([0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, size=200)))
        a22 = np.concatenate(([1.0, 0.0, 0.5], rng.uniform(0.0, 1.0, size=200)))
        prior = asym_spec.prior
        got = _mi_bits(prior.p0, a11, a22)
        want = [mutual_information(prior, ChannelMatrix(x, y)) for x, y in zip(a11, a22)]
        assert got.tolist() == want


def _fields(fn):
    """Every field of a LevelFunctionals, with a NaN F made comparable."""
    f_value = "nan" if np.isnan(fn.stationarity_value) else fn.stationarity_value
    return (fn.level, fn.correct0, fn.correct1, fn.roots, fn.mapping, f_value)


def _comparable(v):
    """A float with NaN made comparable."""
    return "nan" if math.isnan(v) else v


class TestLevelFunctionalsBatch:
    @pytest.mark.parametrize("name", BATCH_SPECS)
    def test_batch_equals_each_level_alone(self, name, request):
        spec = request.getfixturevalue(name)
        levels = batch_levels(spec)
        together = level_functionals(spec, levels)
        alone = fresh_copy(spec)
        assert [_fields(fn) for fn in together] == [_fields(level_functionals(alone, a)) for a in levels]
        for fn in together:
            cm = channel_matrix(spec, fn.roots, fn.mapping)
            assert (fn.correct0, fn.correct1) == (cm.a11, cm.a22)

    def test_exact_grid_hit_and_constant_posterior_in_a_batch(self, example1_spec, flat_spec):
        for spec, grid_points in ((example1_spec, 4097), (flat_spec, 4096)):
            levels = [0.3, 0.5, 0.7, 0.5]
            together = level_functionals(spec, levels, grid_points)
            alone = [level_functionals(fresh_copy(spec), a, grid_points) for a in levels]
            assert [_fields(fn) for fn in together] == [_fields(fn) for fn in alone]

    def test_one_cdf_call_per_density(self, fig5_spec, flat_spec, monkeypatch):
        calls = []
        real_cdf = channel.cdf
        monkeypatch.setattr(channel, "cdf", lambda model, y: calls.append(np.size(y)) or real_cdf(model, y))
        fns = level_functionals(fig5_spec, np.linspace(0.05, 0.95, 19))
        n_roots = sum(len(fn.roots) for fn in fns)
        assert calls == [n_roots, n_roots]
        calls.clear()
        assert len(level_functionals(flat_spec, [0.25, 0.5])) == 2
        assert calls == []

    def test_out_of_band_level_anywhere_raises(self, example1_spec):
        for levels in ([0.0, 0.5], [0.5, 1.0], [0.3, 0.5, 1e-12]):
            with pytest.raises(InvalidSpecError):
                level_functionals(example1_spec, levels)

    def test_empty_batch(self, example1_spec):
        assert level_functionals(example1_spec, []) == ()


class TestLevelFunctionals:
    def test_the_last_batch_per_grid_size_is_kept(self, fig5_spec, monkeypatch):
        spec = channel_spec(fig5_spec.prior, fig5_spec.density0, fig5_spec.density1)
        fresh = lambda a, n: level_functionals(channel_spec(spec.prior, spec.density0, spec.density1), a, n)
        computed = []  # the levels and grid size of every root computation
        real = likelihood._level_roots
        monkeypatch.setattr(
            likelihood, "_level_roots", lambda s, levels, n: computed.append((tuple(levels.tolist()), n)) or real(s, levels, n)
        )
        stationarity(spec, np.array([0.5, 0.3]), 4096)
        stationarity(spec, np.array([0.5]), 8192)
        asked = [(0.5, 4096), (0.5, 4096), (0.5, 8192), (0.3, 4096), (0.7, 4096), (0.5, 8192), (0.7, 4096)]
        got = [level_functionals(spec, a, n) for a, n in asked]
        # roots only where the level is not in the last batch of its grid size; that batch of one is kept
        assert computed == [((0.3, 0.5), 4096), ((0.5,), 8192), ((0.7,), 4096)]
        computed.clear()
        # a level set is never kept: each one outside the last batch of its grid size is computed again
        kept = [find_level_set(spec, a, n) for a, n in asked]
        assert computed == [((0.5,), 4096), ((0.5,), 4096), ((0.3,), 4096)]
        assert [ls.roots for ls in kept] == [fn.roots for fn in got]
        # a new batch replaces the last one of its grid size only
        stationarity(spec, 0.7, 4096)
        computed.clear()
        assert find_level_set(spec, 0.7, 4096) == find_level_set(spec, 0.7, 4096) == kept[4]
        assert find_level_set(spec, 0.5, 8192) == kept[2]
        assert computed == []
        find_level_set(spec, 0.5, 4096)
        assert computed == [((0.5,), 4096)]
        monkeypatch.setattr(likelihood, "_level_roots", real)
        assert [_fields(fn) for fn in got] == [_fields(fresh(a, n)) for a, n in asked]

    def test_a_level_of_the_last_batch_is_read_with_no_cdf_call(self, fig5_spec, example2_spec, monkeypatch):
        for spec in (fresh_copy(fig5_spec), fresh_copy(example2_spec)):
            stationarity(spec, np.array([0.3, 0.5, 0.7]))
            calls = []
            real_cdf = channel.cdf
            monkeypatch.setattr(channel, "cdf", lambda model, y: calls.append(np.size(y)) or real_cdf(model, y))
            read = level_functionals(spec, 0.5)
            assert calls == []
            monkeypatch.setattr(channel, "cdf", real_cdf)
            assert _fields(read) == _fields(level_functionals(fresh_copy(spec), 0.5))

    def test_a_list_of_levels_is_a_batch(self, fig5_spec):
        # a list used to give the functionals of its first level alone
        spec = fresh_copy(fig5_spec)
        together = level_functionals(spec, [0.3, 0.5])
        assert isinstance(together, tuple) and len(together) == 2
        alone = [level_functionals(fresh_copy(spec), a) for a in (0.3, 0.5)]
        assert [_fields(fn) for fn in together] == [_fields(fn) for fn in alone]
        assert isinstance(level_functionals(spec, np.float64(0.3)), LevelFunctionals)

    def test_find_level_set_takes_a_batch(self, fig5_spec):
        # a list used to give the level set of its first level, and then was rejected
        spec = fresh_copy(fig5_spec)
        alone = {a: find_level_set(fresh_copy(spec), a) for a in (0.3, 0.5, 0.7)}
        batches = ([0.5, 0.3], np.array([0.3, 0.5]), [0.3], [0.5, 0.3, 0.5], (0.7,), [], np.empty(0))
        expected = [tuple(alone[a] for a in np.asarray(levels).tolist()) for levels in batches]
        assert [find_level_set(spec, levels) for levels in batches] == expected
        # the same after a kept batch of level functionals, which a batch of level sets does not replace
        stationarity(spec, np.array([0.3, 0.5]))
        kept = spec._last_batch[4096]
        assert [find_level_set(spec, levels) for levels in batches] == expected
        assert spec._last_batch[4096] is kept

    def test_symmetric_channel_at_half(self, example1_spec):
        fn = level_functionals(example1_spec, 0.5)
        assert fn.correct0 == pytest.approx(PHI_1, abs=1e-11)
        assert fn.correct1 == pytest.approx(PHI_1, abs=1e-11)
        assert len(fn.roots) == 1

    def test_matches_channel_matrix_by_construction(self, example2_spec):
        fn = level_functionals(example2_spec, 0.412)
        cm = channel_matrix(example2_spec, fn.roots, "odd_to_zero")
        assert fn.correct0 == pytest.approx(cm.a11, abs=1e-12)
        assert fn.correct1 == pytest.approx(cm.a22, abs=1e-12)
        # frozen values at the exact 0.412 level (mpmath closed form)
        assert fn.correct0 == pytest.approx(0.6031654394680978, abs=1e-9)
        assert fn.correct1 == pytest.approx(0.9323202994584764, abs=1e-9)

    def test_segments_alternate_from_the_first_label(self, example1_spec, example2_spec, fig5_spec):
        # every segment, probed at its midpoint inside the search window, lies
        # on the side of the level that its alternating label assigns it
        for spec in (example1_spec, example2_spec, fig5_spec):
            for level in np.linspace(0.05, 0.95, 19):
                fn = level_functionals(spec, float(level))
                cm = channel_matrix(spec, fn.roots, fn.mapping)
                assert (fn.correct0, fn.correct1) == (cm.a11, cm.a22)
                edges = (spec.search_lo, *fn.roots, spec.search_hi)
                for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
                    below = posterior(spec, 0.5 * (lo + hi)) < level
                    assert below == ((fn.mapping == "odd_to_zero") == (i % 2 == 0))

    def test_level_near_one_saturates(self, example2_spec):
        fn = level_functionals(example2_spec, 0.999)
        assert fn.correct0 >= 0.999
        assert fn.correct1 <= 1e-9

    def test_masses_summing_below_one_are_a_quantizer_error(self):
        # no valid spec gives f + g < 1, so this is not a spec error (CLI exit 1)
        with pytest.raises(QuantizerError, match=r"at level a=0\.3: f=0\.25, g=0\.5 violate f \+ g >= 1") as err:
            LevelFunctionals(0.3, 0.25, 0.5, roots=(0.0,), mapping="odd_to_zero", stationarity_value=math.nan)
        assert not isinstance(err.value, InvalidSpecError)

    def test_mass_sum_lower_bound(self, example1_spec, example2_spec, fig5_spec, asym_spec):
        for spec in (example1_spec, example2_spec, fig5_spec, asym_spec):
            for level in np.linspace(0.05, 0.95, 19):
                fn = level_functionals(spec, float(level))
                assert fn.correct0 + fn.correct1 >= 1.0 - 1e-9

    def test_masses_monotone_in_level(self, example1_spec, example2_spec, fig5_spec):
        for spec in (example1_spec, example2_spec, fig5_spec):
            levels = np.linspace(0.05, 0.95, 19)
            fs, gs = [], []
            for level in levels:
                fn = level_functionals(spec, float(level))
                fs.append(fn.correct0)
                gs.append(fn.correct1)
            assert all(b >= a - 1e-10 for a, b in zip(fs, fs[1:]))
            assert all(b <= a + 1e-10 for a, b in zip(gs, gs[1:]))

    def test_masses_monotone_across_a_run_on_the_level(self, shared_spec):
        # u == 0.5 exactly on a run of grid points; the run counts as {u >= 0.5}
        below, on, above = level_functionals(shared_spec, [0.49, 0.5, 0.51])
        assert below.correct0 <= on.correct0 <= above.correct0
        assert below.correct1 >= on.correct1 >= above.correct1

    def test_derivative_relation(self, example1_spec, example2_spec, asym_spec):
        # central differences: f'(a) = -((1-a) p1 / (a p0)) g'(a)
        step = 1e-5
        for spec in (example1_spec, example2_spec, asym_spec):
            p0, p1 = spec.prior.p0, spec.prior.p1
            for level in np.arange(0.2, 0.81, 0.1):
                hi = level_functionals(spec, float(level + step))
                lo = level_functionals(spec, float(level - step))
                f_prime = (hi.correct0 - lo.correct0) / (2 * step)
                g_prime = (hi.correct1 - lo.correct1) / (2 * step)
                predicted = -((1.0 - level) * p1 / (level * p0)) * g_prime
                scale = max(abs(f_prime), abs(predicted), 1e-12)
                assert abs(f_prime - predicted) / scale <= 1e-3

    def test_crossterm_product_bound(self, example2_spec, fig5_spec, asym_spec):
        for spec in (example2_spec, fig5_spec, asym_spec):
            p0, p1 = spec.prior.p0, spec.prior.p1
            for level in np.linspace(0.05, 0.95, 19):
                fn = level_functionals(spec, float(level))
                f, g = fn.correct0, fn.correct1
                a = (p0 * f + p1 * (1 - g)) * (p0 * (1 - f) + p1 * g)
                b = p0 * f * (1 - f) + p1 * g * (1 - g)
                assert a >= b - 1e-12


class TestStationarity:
    def test_symmetric_channel_vanishes_at_half(self, example1_spec):
        assert abs(stationarity(example1_spec, 0.5)) <= 1e-9

    def test_vanishes_at_the_optimum(self, example2_spec):
        assert abs(stationarity(example2_spec, EX2_A_STAR)) <= 1e-9

    def test_frozen_values_and_sign_change(self, example2_spec):
        f02 = stationarity(example2_spec, 0.2)
        f06 = stationarity(example2_spec, 0.6)
        assert f02 == pytest.approx(EX2_F_AT_02, rel=1e-9)
        assert f06 == pytest.approx(EX2_F_AT_06, rel=1e-9)
        assert f02 > 0.0 > f06

    def test_non_increasing_in_level(self, example1_spec, example2_spec, asym_spec):
        for spec in (example1_spec, example2_spec, asym_spec):
            values = []
            for level in np.linspace(0.05, 0.75, 15):
                try:
                    values.append(stationarity(spec, float(level)))
                except DegenerateChannelError:
                    continue
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("name", ["example2_spec", "fig5_spec"])
    def test_builds_no_object_per_level(self, name, request, monkeypatch):
        spec = fresh_copy(request.getfixturevalue(name))
        levels = np.linspace(0.05, 0.75, 15)
        want = [fn.stationarity_value for fn in level_functionals(fresh_copy(spec), levels)]
        for module, cls in ((channel, "LevelFunctionals"), (likelihood, "LevelSet")):
            monkeypatch.setattr(module, cls, lambda *args, cls=cls: pytest.fail(f"built a {cls}"))
        assert [_comparable(v) for v in stationarity(spec, levels).tolist()] == [_comparable(v) for v in want]
        assert _comparable(stationarity(spec, float(levels[5]))) == _comparable(want[5])

    def test_degenerate_level_raises(self, example2_spec):
        # above sup u = 0.7866 the quantizer is constant: f = 1, g = 0
        for level in (0.8, 0.9, 0.95):
            with pytest.raises(DegenerateChannelError):
                stationarity(example2_spec, level)

    @pytest.mark.parametrize("name", ["example2_spec", "fig5_spec", "two_peaks_spec", "flat_spec"])
    def test_an_array_call_equals_the_scalar_calls(self, name, request):
        # NaN exactly where the scalar call raises: above sup u = 0.7866 on
        # example2, at the extreme levels, and everywhere on the flat channel
        spec = request.getfixturevalue(name)
        levels = np.array([*batch_levels(spec), 1e-8, 0.8, 0.95, 1.0 - 1e-8])
        together = stationarity(spec, levels)
        alone = []
        for level in levels.tolist():
            try:
                alone.append(stationarity(spec, level))
            except DegenerateChannelError:
                alone.append("degenerate")
        assert isinstance(together, np.ndarray) and together.shape == levels.shape
        assert [v if math.isfinite(v) else "degenerate" for v in together.tolist()] == alone
        assert not np.isinf(together).any()
        assert all(type(v) is float for v in alone if v != "degenerate")
        if name == "flat_spec":
            assert alone == ["degenerate"] * levels.size
        else:
            assert "degenerate" in alone and alone.count("degenerate") < levels.size

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0.001, 0.999), st.lists(st.tuples(_LEVEL, _MASS, _MASS), max_size=12))
    def test_the_batch_is_the_formula_bit_for_bit(self, p0, rows):
        levels, f, g = (list(column) for column in zip(*rows)) if rows else ([], [], [])
        got = channel._stationarity_from_masses(Prior(p0), levels, f, g)
        assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
        for value, (a, fa, ga) in zip(got.tolist(), rows):
            degenerate = not all(DEGENERACY_EPS < m < 1.0 - DEGENERACY_EPS for m in (fa, ga))
            assert math.isnan(value) == degenerate
            if not degenerate:
                assert value == _formula_F(p0, a, fa, ga)

    def test_flat_channel_always_degenerate(self, flat_spec):
        for level in (0.2, 0.5, 0.8):
            with pytest.raises(DegenerateChannelError):
                stationarity(flat_spec, level)
