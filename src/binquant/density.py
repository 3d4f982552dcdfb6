"""Gaussian-mixture conditional densities: the mixture model and its kernels.

Each conditional density of the channel output is a finite Gaussian mixture.
:func:`log_pdf` and :func:`cdf` evaluate it component-major: the points
form one row, each of the k components a row of a ``(k, points)`` array,
and the sum or log-sum-exp over components reduces along axis 0, adding
the rows in sequence.  (A reduction over a short trailing component axis
costs several times more.)  The CDF is closed form through the normal CDF,
which one numpy kernel evaluates (:func:`_ndtr`): a piecewise polynomial
for the scaled complementary error function, whose table
``tools/ndtr_table.py`` generates with ``mpmath``.  :mod:`binquant.channel`
turns the CDF's values at the thresholds into probability masses, never by
quadrature.

The second Gaussian parameter throughout this package is the *standard
deviation*, not the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ndtr_table import COEFFICIENTS, INTERVALS, SCALE
from .errors import InvalidSpecError

__all__ = [
    "GaussianComponent",
    "DensityModel",
    "Prior",
    "Thresholds",
    "log_pdf",
    "cdf",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: The normal-CDF kernel's polynomial coefficients, one column per interval
#: of t and one row per power of s, lowest first; constants as 0-d arrays,
#: which numpy broadcasts faster than Python floats (see :func:`_ndtr`).
_NDTR_TABLE = np.fromstring(COEFFICIENTS, sep=" ").reshape(INTERVALS + 1, -1).T.copy()
_NDTR_TABLE.flags.writeable = False
_ZERO, _ONE, _MINUS_HALF = np.array(0.0), np.array(1.0), np.array(-0.5)
_SCALE, _INTERVAL_SCALE = np.array(SCALE), np.array(INTERVALS * SCALE)

#: A strictly increasing, finite sequence of quantizer boundaries.
#: The empty tuple is the constant quantizer (a single segment).
Thresholds = tuple[float, ...]


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component N(mean, stddev) carrying ``weight`` of the mass."""

    mean: float
    stddev: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise InvalidSpecError(f"component mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.stddev) and self.stddev > 0.0):
            raise InvalidSpecError(f"component stddev must be > 0, got {self.stddev!r}")
        if not (0.0 < self.weight <= 1.0):
            raise InvalidSpecError(f"component weight must be in (0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class DensityModel:
    """A finite Gaussian mixture; weights must sum to 1 within 1e-12.

    The component parameters are also held as read-only ``(k, 1)`` column
    arrays, built once here: ``_mus``, ``_sigmas``, ``_weights`` and
    ``_log_coef``, the per-component constant log w - log sigma -
    log sqrt(2 pi) of the log-pdf.  They broadcast against a row of points
    into the component-major layout of :func:`log_pdf` and :func:`cdf`.
    """

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise InvalidSpecError("density model needs at least one component")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise InvalidSpecError(f"component weights must sum to 1, got {total!r}")
        mus = np.array([[c.mean] for c in comps])
        sigmas = np.array([[c.stddev] for c in comps])
        weights = np.array([[c.weight] for c in comps])
        log_coef = -np.log(sigmas) - _LOG_SQRT_2PI + np.log(weights)
        for name, arr in (
            ("_mus", mus), ("_sigmas", sigmas), ("_weights", weights), ("_log_coef", log_coef)
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def mean(self) -> float:
        return math.fsum(c.weight * c.mean for c in self.components)


@dataclass(frozen=True)
class Prior:
    """Input distribution P(X=0) = p0; p1 is derived, never stored."""

    p0: float

    def __post_init__(self):
        if not (math.isfinite(self.p0) and 0.0 < self.p0 < 1.0):
            raise InvalidSpecError(f"p0 must lie strictly inside (0, 1), got {self.p0!r}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


def _z(model: DensityModel, y) -> np.ndarray:
    """``y`` standardized by each component, component-major: shape ``(k, y.size)``."""
    return (np.asarray(y, dtype=float).ravel() - model._mus) / model._sigmas


def _shaped(vals: np.ndarray, y):
    """``vals`` as a ``float`` for scalar ``y``, else as an array of ``y``'s shape."""
    return float(vals[0]) if np.ndim(y) == 0 else vals.reshape(np.shape(y))


def _log_sum_exp(model: DensityModel, y):
    """``z``, the component densities over the largest, their sum, and the log-pdf."""
    z = _z(model, y)
    # the component logs -z^2/2 + log_coef, in place; they are always finite
    logs = np.multiply(z, z)
    logs *= -0.5
    logs += model._log_coef
    if len(logs) == 1:  # one row's log-sum-exp is exactly top, 1, 1 and top + 0
        return z, 1.0, 1.0, logs[0]
    top = logs.max(axis=0)
    logs -= top
    rel = np.exp(logs, out=logs)
    total = rel.sum(axis=0)
    return z, rel, total, top + np.log(total)


def log_pdf(model: DensityModel, y):
    """Log of the mixture density, computed in log-space (no tail underflow)."""
    return _shaped(_log_sum_exp(model, y)[3], y)


def _log_pdf_slope(model: DensityModel, y):
    """:func:`log_pdf` and its d/dy: the component slopes -z/sigma, weighted by share of the density."""
    z, rel, total, log_p = _log_sum_exp(model, y)
    return _shaped(log_p, y), _shaped((-1.0 / model._sigmas.ravel()) @ (rel * z) / total, y)


def _ndtr(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF at each element of the float array ``z``, which it overwrites.

    Phi(z) = exp(-z^2 / 2) P(t) for z <= 0, and 1 - Phi(-z) for z > 0, with
    P = erfcx(|z| / sqrt 2) / 2 a polynomial of degree 5 in s on each of
    256 equal intervals of t = SCALE / (SCALE + |z|) in [0, 1], where
    256 t = i + s, s in [0, 1) (``tools/ndtr_table.py``).  The index i of
    |z| = 0 is 256, a row of the table that holds P(0) = 1/2, so i needs no
    clip (NaN, whose index is not a number, reads a clipped row and gives
    NaN); +-inf give t = 0, exp(-inf) = 0 and exactly 0 and 1, with no
    floating-point warning.

    Measured against ``mpmath``, the relative error is at most about 6e-14
    on z in [-37.5, -5) (most of it the rounding of z^2, amplified by exp)
    and 1.5e-15 on [-5, 0); below -37.5 the value is subnormal or 0.  One
    gather of the 6 coefficients of every element, and Horner's rule in
    place, keep it to 23 numpy calls: their overhead, not the arithmetic,
    is most of the cost on the short arrays the solver passes.  Its peak
    workspace is 73 bytes per element, most of it the gathered
    coefficients.
    """
    upper = np.greater(z, _ZERO)
    tail = np.multiply(z, z)
    np.multiply(tail, _MINUS_HALF, tail)
    np.exp(tail, tail)
    # z becomes 256 t, then s
    np.abs(z, z)
    np.add(z, _SCALE, z)
    np.divide(_INTERVAL_SCALE, z, z)
    index = np.floor(z)
    np.subtract(z, index, z)
    index = index.astype(np.intp)
    c0, c1, c2, c3, c4, poly = _NDTR_TABLE.take(index, axis=1, mode="clip")
    for c in (c4, c3, c2, c1, c0):
        np.multiply(poly, z, poly)
        np.add(poly, c, poly)
    np.multiply(poly, tail, poly)
    return np.subtract(_ONE, poly, out=poly, where=upper)


def cdf(model: DensityModel, y):
    """Mixture CDF at ``y``; accepts +-inf (limits 0 and 1)."""
    # means and stddevs are finite, so +-inf inputs give +-inf z, which _ndtr maps to 0/1 exactly
    phi = _ndtr(_z(model, y))
    np.multiply(phi, model._weights, phi)
    return _shaped(np.add.reduce(phi, axis=0), y)
