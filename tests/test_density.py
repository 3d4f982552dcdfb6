"""Gaussian-mixture density evaluation, and the exact partition masses built from its CDF."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant import (
    DensityModel,
    GaussianComponent,
    InvalidSpecError,
    Prior,
    cdf,
    channel_matrix,
    channel_spec,
    log_pdf,
)
from binquant.channel import _correct_masses
from binquant import _ndtr_table as ndtr_table
from binquant.density import _NDTR_TABLE, _log_pdf_slope, _ndtr

INF = math.inf

STD_NORMAL = DensityModel(components=(GaussianComponent(0.0, 1.0, 1.0),))
SHIFTED = DensityModel(components=(GaussianComponent(-1.0, 1.0, 1.0),))
UNIT_AT_1 = DensityModel(components=(GaussianComponent(1.0, 1.0, 1.0),))
HEAVY = DensityModel(components=(GaussianComponent(-1.0, math.sqrt(5.0), 1.0),))
THREE_BUMP = DensityModel(
    components=(
        GaussianComponent(0.0, math.sqrt(0.3), 0.3),
        GaussianComponent(-3.0, math.sqrt(0.2), 0.4),
        GaussianComponent(3.0, math.sqrt(0.1), 0.3),
    )
)
ALL_MODELS = [STD_NORMAL, SHIFTED, UNIT_AT_1, HEAVY, THREE_BUMP]

# standard-normal peak 1/sqrt(2 pi)
PEAK = 0.3989422804014327
# high-precision mixture value at the center of the -3 bump (mpmath, 30 dps)
THREE_BUMP_AT_M3 = 0.3568248900731743
# Phi(2.5374) and Phi(1), mpmath
PHI_2_5374 = 0.9944160365434726
PHI_1 = 0.8413447460685429


def _segment_mass(model, thresholds, parity):
    """Mass of ``model`` on the odd or even segments of the threshold partition.

    It is a11 of the channel with ``model`` as density0 whose Z=0 segments
    are those of ``parity``.
    """
    spec = channel_spec(Prior(0.5), model, STD_NORMAL)
    return channel_matrix(spec, thresholds, f"{parity}_to_zero").a11


def _pdf(model, y):
    return math.exp(log_pdf(model, y))


class TestValidation:
    def test_component_rejects_bad_stddev(self):
        with pytest.raises(InvalidSpecError):
            GaussianComponent(mean=0.0, stddev=0.0, weight=1.0)
        with pytest.raises(InvalidSpecError):
            GaussianComponent(mean=0.0, stddev=-1.0, weight=1.0)

    def test_component_rejects_bad_weight(self):
        for w in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidSpecError):
                GaussianComponent(mean=0.0, stddev=1.0, weight=w)

    def test_model_rejects_unnormalized_weights(self):
        comps = (GaussianComponent(0.0, 1.0, 0.5), GaussianComponent(1.0, 1.0, 0.6))
        with pytest.raises(InvalidSpecError):
            DensityModel(components=comps)

    def test_model_rejects_empty(self):
        with pytest.raises(InvalidSpecError):
            DensityModel(components=())

    def test_prior_rejects_endpoints(self):
        for p0 in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(InvalidSpecError):
                Prior(p0=p0)
        assert Prior(p0=0.25).p1 == 0.75


class TestPdf:
    def test_standard_normal_peak(self):
        assert _pdf(STD_NORMAL, 0.0) == pytest.approx(PEAK, abs=1e-12)

    def test_shift_invariance(self):
        assert _pdf(SHIFTED, -1.0) == pytest.approx(PEAK, abs=1e-12)

    def test_three_bump_mixture_value(self):
        # distant components contribute < 1e-6; the frozen value includes them
        assert _pdf(THREE_BUMP, -3.0) == pytest.approx(THREE_BUMP_AT_M3, rel=1e-12)

    def test_nonnegative_and_finite_on_wide_grid(self):
        ys = np.linspace(-60.0, 60.0, 2001)
        for model in ALL_MODELS:
            vals = np.exp(log_pdf(model, ys))
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0.0)

    def test_log_pdf_matches_log_of_pdf(self):
        ys = np.linspace(-8.0, 8.0, 101)
        for model in ALL_MODELS:
            np.testing.assert_allclose(log_pdf(model, ys), np.log(_loop_pdf(model, ys)), rtol=1e-12)

    def test_log_pdf_finite_deep_in_tails(self):
        assert math.isfinite(log_pdf(STD_NORMAL, 40.0))
        assert log_pdf(STD_NORMAL, 40.0) < -700.0  # past exp underflow


class TestIntervalMass:
    """Masses of single intervals: CDF differences, or the even segment
    [a, b) of the partition by the threshold pair (a, b)."""

    def test_half_mass_by_symmetry(self):
        assert cdf(STD_NORMAL, 0.0) - cdf(STD_NORMAL, -INF) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_cdf_value(self):
        assert cdf(UNIT_AT_1, 3.5374) - cdf(UNIT_AT_1, -INF) == pytest.approx(PHI_2_5374, abs=1e-12)

    def test_empty_interval(self):
        for c in (-3.0, 0.0, 17.5):
            assert np.diff(cdf(STD_NORMAL, np.array([c, c])))[0] == 0.0

    def test_total_mass_is_one(self):
        for model in ALL_MODELS:
            assert cdf(model, INF) - cdf(model, -INF) == pytest.approx(1.0, abs=1e-12)
            # the infinite limits are exact and raise no floating-point error
            with np.errstate(all="raise"):
                assert (cdf(model, -INF), cdf(model, INF)) == (0.0, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for model in ALL_MODELS:
            pts = np.sort(rng.uniform(-12.0, 12.0, size=30))
            for a, b, c in zip(pts, pts[10:], pts[20:]):
                lhs = _segment_mass(model, (a, b), "even") + _segment_mass(model, (b, c), "even")
                assert lhs == pytest.approx(_segment_mass(model, (a, c), "even"), abs=1e-12)

    def test_monotone_in_upper_bound(self):
        rng = np.random.default_rng(11)
        for model in ALL_MODELS:
            a = -4.0
            uppers = np.sort(rng.uniform(-4.0, 8.0, size=20))
            masses = [_segment_mass(model, (a, b), "even") for b in uppers]
            assert all(m1 <= m2 + 1e-15 for m1, m2 in zip(masses, masses[1:]))

    def test_normalization_within_1e9_of_one(self):
        # wide-interval check of the unit-integral invariant
        for model in ALL_MODELS:
            assert abs(_segment_mass(model, (-1e6, 1e6), "even") - 1.0) <= 1e-9


class TestPartitionMass:
    def test_single_threshold_halves_standard_normal(self):
        assert _segment_mass(STD_NORMAL, (0.0,), "odd") == pytest.approx(0.5, abs=1e-12)

    def test_two_threshold_tail_mass(self):
        # mass of the heavy density outside (-0.5374, 3.5374)
        got = _segment_mass(HEAVY, (-0.5374, 3.5374), "odd")
        assert got == pytest.approx(0.6031682311650414, abs=1e-12)

    def test_two_threshold_middle_mass(self):
        got = _segment_mass(UNIT_AT_1, (-0.5374, 3.5374), "even")
        assert got == pytest.approx(0.9323183433489574, abs=1e-12)

    def test_no_thresholds(self):
        for model in ALL_MODELS:
            assert _segment_mass(model, (), "odd") == 1.0
            assert _segment_mass(model, (), "even") == 0.0

    def test_parities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for model in ALL_MODELS:
            for n in (1, 2, 3, 5, 8):
                h = tuple(np.sort(rng.uniform(-10.0, 10.0, size=n)))
                total = _segment_mass(model, h, "odd") + _segment_mass(model, h, "even")
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidSpecError):
            _segment_mass(STD_NORMAL, (1.0, 1.0), "odd")
        with pytest.raises(InvalidSpecError):
            _segment_mass(STD_NORMAL, (2.0, 1.0), "even")

    def test_rejects_unknown_parity(self):
        spec = channel_spec(Prior(0.5), STD_NORMAL, STD_NORMAL)
        with pytest.raises(InvalidSpecError):
            channel_matrix(spec, (0.0,), "all")


def _mixture(k: int) -> DensityModel:
    """A k-component mixture with spread means, stddevs and unequal weights."""
    rng = np.random.default_rng(100 + k)
    raw = rng.uniform(0.2, 1.0, size=k)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return DensityModel(
        components=tuple(
            GaussianComponent(float(m), float(s), float(w))
            for m, s, w in zip(rng.uniform(-4.0, 4.0, size=k), rng.uniform(0.05, 2.5, size=k), weights)
        )
    )


def _loop_pdf(model, y):
    y = np.asarray(y, dtype=float)
    total = None
    for c, log_coef in zip(model.components, model._log_coef.ravel()):
        z = (y - c.mean) / c.stddev
        term = np.exp(log_coef - 0.5 * z * z)
        total = term if total is None else total + term
    return total


def _loop_log_pdf(model, y):
    y = np.asarray(y, dtype=float)
    logs = []
    for c, log_coef in zip(model.components, model._log_coef.ravel()):
        z = (y - c.mean) / c.stddev
        logs.append(-0.5 * z * z + log_coef)
    top = logs[0]
    for v in logs[1:]:
        top = np.maximum(top, v)
    total = np.exp(logs[0] - top)
    for v in logs[1:]:
        total = total + np.exp(v - top)
    return top + np.log(total)


def _loop_cdf(model, y):
    """The mixture CDF by the normal-CDF kernel one component at a time; its accuracy is pinned against mpmath."""
    y = np.asarray(y, dtype=float)
    total = None
    for c in model.components:
        term = c.weight * _ndtr(np.array((y - c.mean) / c.stddev, dtype=float, ndmin=1)).reshape(y.shape)
        total = term if total is None else total + term
    return total


KERNELS = [(log_pdf, _loop_log_pdf), (cdf, _loop_cdf)]


def _out_of_place_log_pdf_slope(model, y):
    """log-pdf and slope by the log-sum-exp written out of place, each step a new array."""
    z = (np.asarray(y, dtype=float).ravel() - model._mus) / model._sigmas
    comp_logs = -0.5 * z * z + model._log_coef
    top = comp_logs.max(axis=0)
    rel = np.exp(comp_logs - top)
    total = rel.sum(axis=0)
    slope = (-1.0 / model._sigmas.ravel()) @ (rel * z) / total
    return (top + np.log(total)).reshape(np.shape(y)), slope.reshape(np.shape(y))


def _bits(x) -> bytes:
    """The float64 bytes of a float or an array, with its shape: equal only when every bit is."""
    return repr(np.shape(x)).encode() + np.asarray(x, dtype=np.float64).tobytes()


def _model_id(model) -> str:
    return f"{len(model.components)}-components-sd{model.components[0].stddev:.3g}"


class TestComponentMajorKernels:
    """The kernels reduce over a leading component axis; a loop adding one
    component at a time gives the same floats."""

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("kernel, loop", KERNELS, ids=["log_pdf", "cdf"])
    def test_equals_a_loop_over_components(self, kernel, loop, k):
        model = _mixture(k)
        ys = np.linspace(-9.0, 9.0, 301)
        for y in (0.37, np.float64(-1.25), np.array(2.5), ys, ys[:300].reshape(20, 15)):
            got, want = kernel(model, y), loop(model, y)
            if np.ndim(y) == 0:
                assert type(got) is float
                assert got == float(want)
            else:
                assert got.shape == np.shape(y)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", [STD_NORMAL, HEAVY, *map(_mixture, range(1, 7))], ids=_model_id)
    def test_in_place_kernel_equals_the_out_of_place_expressions(self, model):
        ys = np.r_[np.linspace(-60.0, 60.0, 1201), [c.mean for c in model.components]]
        for y in (0.37, np.float64(-1.25), np.array(2.5), ys, ys[:1200].reshape(40, 30)):
            got_log, got_slope = _log_pdf_slope(model, y)
            want_log, want_slope = _out_of_place_log_pdf_slope(model, y)
            assert _bits(got_log) == _bits(log_pdf(model, y)) == _bits(want_log)
            assert _bits(got_slope) == _bits(want_slope)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_cdf_at_infinities(self, k):
        model = _mixture(k)
        assert (cdf(model, -INF), cdf(model, INF)) == (0.0, 1.0)
        got = cdf(model, np.array([-INF, 0.5, INF]))
        assert np.array_equal(got, _loop_cdf(model, np.array([-INF, 0.5, INF])))
        assert (got[0], got[2]) == (0.0, 1.0)


def _load_table_script():
    path = Path(__file__).resolve().parent.parent / "tools" / "ndtr_table.py"
    spec = importlib.util.spec_from_file_location("ndtr_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mp_phi(z) -> float:
    with mpmath.workdps(40):
        return float(mpmath.ncdf(mpmath.mpf(z)))


class TestNormalCdfKernel:
    """``_ndtr`` against ``mpmath``, held to bounds that scipy's ``ndtr`` meets
    (measured on 40,000 points per range: 2.4e-13 relative on [-37.5, -5),
    4.5e-15 on [-5, 0) and 1.1e-16 absolute on [0, 8.3])."""

    @pytest.mark.parametrize(
        "lo, hi, bound, relative",
        [(-37.5, -5.0, 2.5e-13, True), (-5.0, 0.0, 5e-15, True), (0.0, 8.3, 1e-15, False)],
        ids=["left-tail", "left-core", "right-half"],
    )
    def test_error_against_mpmath(self, lo, hi, bound, relative):
        z = np.r_[np.linspace(lo, hi, 600), np.random.default_rng(0).uniform(lo, hi, 600)]
        got = _ndtr(z.copy())
        want = np.array([_mp_phi(v) for v in z])
        error = np.abs(got - want) / (want if relative else 1.0)
        assert error.max() <= bound

    def test_limits_raise_no_floating_point_warning(self):
        with np.errstate(all="raise"):
            got = _ndtr(np.array([-INF, INF, -0.0, 0.0]))
        assert got.tolist() == [0.0, 1.0, 0.5, 0.5]
        assert not np.signbit(got[0])

    def test_below_the_normal_range(self):
        # Phi(-37.5) = 4.6e-308 is the last normal value; below it the kernel
        # gives subnormals and then 0, never more than Phi(-37.5)
        z = np.r_[-np.geomspace(37.5001, 1e150, 200), -np.linspace(37.5, 39.0, 200)]
        got = _ndtr(z)
        assert np.all((got >= 0.0) & (got <= _mp_phi(-37.5)))
        assert got[0] > 0.0 and got[-1] == 0.0

    def test_the_committed_table_is_the_scripts(self):
        script = _load_table_script()
        assert (script.SCALE, script.INTERVALS) == (ndtr_table.SCALE, ndtr_table.INTERVALS)
        assert _NDTR_TABLE.shape == (script.DEGREE + 1, script.INTERVALS + 1)
        for i in (0, 1, 97, script.INTERVALS - 1, script.INTERVALS):
            assert _NDTR_TABLE[:, i].tolist() == script.interval_coefficients(i)


def _mp_log_pdf_slope(model, y):
    """log p(y), d/dy log p(y) and the scale sum_k share_k |z_k| / sigma_k, at 30 digits."""
    with mpmath.workdps(30):
        y = mpmath.mpf(y)
        terms = []
        for c in model.components:
            mu, sd = mpmath.mpf(c.mean), mpmath.mpf(c.stddev)
            z = (y - mu) / sd
            terms.append((c.weight * mpmath.exp(-z * z / 2) / (sd * mpmath.sqrt(2 * mpmath.pi)), z / sd))
        total = mpmath.fsum(p for p, _ in terms)
        slope = -mpmath.fsum(p * zs for p, zs in terms) / total
        scale = mpmath.fsum(p * abs(zs) for p, zs in terms) / total
        return float(mpmath.log(total)), float(slope), float(scale)


def _two_peaks_phi0(narrow_sd):
    return DensityModel(components=(GaussianComponent(-1.0, 1.0, 0.9), GaussianComponent(20.0, narrow_sd, 0.1)))


#: Each density of the shipped configs, and of their variants with a 3e-4 component, with points
#: across it, in both far tails, and where one component's weight underflows.
SLOPE_CASES = {
    "example1": (STD_NORMAL, [-40.0, -8.0, -1.0, 0.0, 0.3, 2.5, 9.0, 40.0]),
    "example2_phi0": (HEAVY, [-90.0, -12.0, -1.0, 0.7, 3.5374, 25.0, 90.0]),
    "fig5_phi0": (THREE_BUMP, [-60.0, -3.0, -1.6, -0.4, 0.0, 1.5, 2.9, 3.0, 12.0, 60.0]),
    "two_peaks_phi0": (_two_peaks_phi0(3e-3), [-30.0, -1.0, 8.0, 19.99, 19.999, 20.0, 20.002, 20.03, 21.0, 45.0]),
    "two_peaks_sd3e-4_phi0": (
        _two_peaks_phi0(3e-4), [-30.0, 8.0, 19.9, 19.999, 19.9997, 20.0, 20.0001, 20.0004, 20.003, 20.1, 45.0]
    ),
    "narrow_pair": (
        DensityModel(components=(GaussianComponent(-0.5, 3e-4, 0.5), GaussianComponent(0.5, 3e-4, 0.5))),
        [-2.0, -0.5003, -0.5, -0.4999, 0.0, 0.4996, 0.5, 0.5002, 2.0],
    ),
}


class TestLogPdfSlope:
    """``_log_pdf_slope``: the log-mixture of :func:`log_pdf` and its y-derivative, from one kernel."""

    @pytest.mark.parametrize("name", sorted(SLOPE_CASES))
    def test_matches_30_digit_reference(self, name):
        model, points = SLOPE_CASES[name]
        log_p, slope = _log_pdf_slope(model, np.array(points))
        for y, got_log, got_slope in zip(points, log_p, slope):
            want_log, want_slope, scale = _mp_log_pdf_slope(model, y)
            assert got_log == pytest.approx(want_log, rel=1e-13, abs=1e-13)
            # the slope is a weighted mean of the component slopes -z/sigma: rounding scales with their size
            assert abs(got_slope - want_slope) <= 1e-13 * scale + 1e-300

    @pytest.mark.parametrize("name", sorted(SLOPE_CASES))
    def test_matches_central_differences(self, name):
        model, points = SLOPE_CASES[name]
        sd_min = min(c.stddev for c in model.components)
        h = 1e-4 * sd_min
        ys = np.array(points)
        _, slope = _log_pdf_slope(model, ys)
        central = (log_pdf(model, ys + h) - log_pdf(model, ys - h)) / (2.0 * h)
        scale = np.array([_mp_log_pdf_slope(model, y)[2] for y in points])
        assert np.all(np.abs(slope - central) <= 1e-6 * (scale + 1.0 / sd_min))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_log_pdf_is_the_kernels_first_value(self, k):
        model = _mixture(k)
        ys = np.linspace(-9.0, 9.0, 301)
        for y in (0.37, ys, ys[:300].reshape(20, 15)):
            log_p, slope = _log_pdf_slope(model, y)
            assert np.shape(log_p) == np.shape(slope) == np.shape(y)
            assert np.array_equal(log_p, log_pdf(model, y))
            assert np.array_equal(log_p, _loop_log_pdf(model, y))


_PROBABILITY = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True)
_SORTED_CDFS = st.lists(_PROBABILITY, min_size=0, max_size=9).map(sorted)


def _exact_odd_mass(c):
    """c1 - c2 + c3 - ... (+ 1 when the count is even), the mass of the odd segments, as a Fraction."""
    return sum((Fraction(v) * (-1) ** i for i, v in enumerate(c)), Fraction(1 - len(c) % 2))


def _clamped(x):
    return min(1.0, max(0.0, float(x)))


def _assert_no_negative_zero(*masses):
    assert all(math.copysign(1.0, m) == 1.0 for batch in masses for m in batch)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SORTED_CDFS)
def test_alternating_mass_is_the_exact_sum_rounded_once(c):
    # odd segments: c1 - c2 + c3 - ... (+ 1 when the count is even); even: 1 minus that
    odd = _exact_odd_mass(c)
    # odd segments to Z=0: a11 is density0's odd mass, a22 density1's even mass
    assert _correct_masses(c, c, [0, len(c)], [True]) == ([float(odd)], [float(1 - odd)])
    assert _correct_masses(c, c, [0, len(c)], [False]) == ([float(1 - odd)], [float(odd)])
    # == takes -0.0 for 0.0; the sign bit must be clear too
    _assert_no_negative_zero(*_correct_masses(c, c, [0, len(c)], [True]), *_correct_masses(c, c, [0, len(c)], [False]))


_LEVEL_CDFS = st.integers(0, 9).flatmap(
    lambda n: st.tuples(*[st.lists(_PROBABILITY, min_size=n, max_size=n).map(sorted)] * 2, st.booleans())
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_LEVEL_CDFS, min_size=1, max_size=12))
def test_a_batch_of_masses_is_each_exact_sum_rounded_once(levels):
    # one entry per level: both densities' sorted CDFs at its roots, and whether its odd segments go to Z=0
    c0 = [v for level in levels for v in level[0]]
    c1 = [v for level in levels for v in level[1]]
    bounds = np.cumsum([0] + [len(level[0]) for level in levels]).tolist()
    odd_first = [level[2] for level in levels]
    a11, a22 = _correct_masses(c0, c1, bounds, odd_first)
    _assert_no_negative_zero(a11, a22)
    for (l0, l1, odd), f, g in zip(levels, a11, a22, strict=True):
        m0, m1 = _exact_odd_mass(l0), _exact_odd_mass(l1)
        assert (f, g) == ((_clamped(m0), _clamped(1 - m1)) if odd else (_clamped(1 - m0), _clamped(m1)))
        # the same level alone
        assert _correct_masses(l0, l1, [0, len(l0)], [odd]) == ([f], [g])
