"""Shared channel fixtures: the shipped channels plus asymmetric-prior and flat ones."""

import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

from binquant import DensityModel, GaussianComponent, Prior, channel_spec
from binquant.cli import load_config
from binquant.likelihood import _search_grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def single_gaussian(mean, stddev):
    return DensityModel(components=(GaussianComponent(mean=mean, stddev=stddev, weight=1.0),))


@pytest.fixture(scope="session")
def example1_spec():
    """Symmetric channel: same unit noise on inputs at -1 and +1."""
    return channel_spec(Prior(p0=0.5), single_gaussian(-1.0, 1.0), single_gaussian(1.0, 1.0))


@pytest.fixture(scope="session")
def example2_spec():
    """Unequal-variance channel: heavy-tailed noise on the X=0 input."""
    return channel_spec(
        Prior(p0=0.5), single_gaussian(-1.0, math.sqrt(5.0)), single_gaussian(1.0, 1.0)
    )


@pytest.fixture(scope="session")
def fig5_spec():
    """Three-bump mixture vs a broad Gaussian; six-threshold level sets."""
    density0 = DensityModel(
        components=(
            GaussianComponent(mean=0.0, stddev=math.sqrt(0.3), weight=0.3),
            GaussianComponent(mean=-3.0, stddev=math.sqrt(0.2), weight=0.4),
            GaussianComponent(mean=3.0, stddev=math.sqrt(0.1), weight=0.3),
        )
    )
    return channel_spec(Prior(p0=0.5), density0, single_gaussian(-2.0, 3.0))


@pytest.fixture(scope="session")
def asym_spec():
    """Unequal-variance channel with a skewed prior (exercises p0 != p1 paths)."""
    return channel_spec(
        Prior(p0=0.3), single_gaussian(-1.0, math.sqrt(5.0)), single_gaussian(1.0, 1.0)
    )


@pytest.fixture(scope="session")
def flat_spec():
    """Identical conditionals: the channel carries no information."""
    return channel_spec(Prior(p0=0.5), single_gaussian(0.0, 1.0), single_gaussian(0.0, 1.0))


@pytest.fixture(scope="session")
def two_peaks_spec():
    """configs/mixture_two_peaks.json: a level-set MI with two peaks."""
    return load_config(str(CONFIG_DIR / "mixture_two_peaks.json"))[0]


def shared_channel():
    """phi0 = N(0, 1)/2 + N(10, 1)/2 and phi1 = N(0, 1)/2 + N(-10, 1)/2, p0 = 0.5.

    Both densities share their N(0, 1) half, so on the default 4096-point
    grid u is exactly 0.5 on a run of 294 points around 0, above 0.5 left of
    the run and below it right of the run: the level 0.5 has one root.
    """
    half = GaussianComponent(mean=0.0, stddev=1.0, weight=0.5)
    return channel_spec(
        Prior(p0=0.5),
        DensityModel(components=(half, GaussianComponent(mean=10.0, stddev=1.0, weight=0.5))),
        DensityModel(components=(half, GaussianComponent(mean=-10.0, stddev=1.0, weight=0.5))),
    )


@pytest.fixture(scope="session")
def shared_spec():
    """A shared component in both densities: u sits exactly on 0.5 along a run."""
    return shared_channel()


def fresh_copy(spec):
    """An equal spec with nothing cached: no search grid and no last batch of level sets.

    A single-level call on a shared fixture can read the level sets of an
    earlier batch, so a batch is compared with single-level calls on a
    fresh copy.
    """
    return channel_spec(spec.prior, spec.density0, spec.density1, spec.search_lo, spec.search_hi)


BATCH_SPECS = ["example1_spec", "example2_spec", "fig5_spec", "two_peaks_spec", "flat_spec", "shared_spec"]


def batch_levels(spec, grid_points=4096):
    """Unsorted levels with duplicates, some exactly equal to grid values of u."""
    u = _search_grid(spec, grid_points).u
    on_grid = [a for a in u[[300, 1500, 2047, 2600, 3700]].tolist() if 1e-6 < a < 1.0 - 1e-6]
    return [0.7, 0.2, 0.5, 0.2, 0.05, 0.95, 0.3205528447713517, *on_grid, 0.7, *on_grid[:1], 0.5]


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def gaussian_pairs(draw):
    """A single-Gaussian channel: stddevs from 0.05 to 5, and cases drawn on purpose.

    Equal stddevs (a linear log r), near-identical densities (means 1e-3 to
    1e-2 stddevs apart), and nearly equal stddevs, whose vertex of log r lies
    far out: when it is within 60 of the means, the window's edge beyond it
    is moved to within 3 cells of a 4096-point grid of it, inside or outside.
    """
    p0 = draw(st.floats(0.05, 0.95))
    m0, s0 = draw(st.floats(-3.0, 3.0)), draw(log_uniform(0.05, 5.0))
    kind = draw(st.sampled_from(["any", "equal", "near_identical", "edge_vertex"]))
    if kind == "near_identical":
        m1, s1 = m0 + s0 * draw(st.floats(1e-3, 1e-2)), s0 * (1.0 + draw(st.floats(0.0, 1e-3)))
    elif kind == "any":
        m1, s1 = draw(st.floats(-3.0, 3.0)), draw(log_uniform(0.05, 5.0))
    elif kind == "equal":
        m1, s1 = draw(st.floats(-3.0, 3.0)), s0
    else:
        m1, s1 = draw(st.floats(-3.0, 3.0)), s0 * draw(st.floats(1.005, 1.1))
    spec = channel_spec(Prior(p0=p0), single_gaussian(m0, s0), single_gaussian(m1, s1))
    if kind == "edge_vertex":
        vertex = (m1 / s1**2 - m0 / s0**2) / (1.0 / s1**2 - 1.0 / s0**2)
        lo, hi = spec.search_lo, spec.search_hi
        # within 3 cells of a 4096-point grid of the window
        offset = draw(st.floats(-3.0, 3.0)) * (max(hi, vertex) - min(lo, vertex)) / 4095
        if hi < vertex < m0 + 60.0:
            hi = max(hi, vertex + offset)
        elif m0 - 60.0 < vertex < lo:
            lo = min(lo, vertex - offset)
        spec = channel_spec(spec.prior, spec.density0, spec.density1, lo, hi)
    return spec
