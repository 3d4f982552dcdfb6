"""Gaussian-mixture conditional densities: the mixture model and its kernels.

Each conditional density of the channel output is a finite Gaussian mixture.
:func:`log_pdf` and :func:`cdf` evaluate it component-major: the points
form one row, each of the k components a row of a ``(k, points)`` array,
and the sum or log-sum-exp over components reduces along axis 0, adding
the rows in sequence.  (A reduction over a short trailing component axis
costs several times more.)  The CDF is closed form through the normal CDF
(error function); :mod:`binquant.channel` turns its values at the
thresholds into probability masses, never by quadrature.

The second Gaussian parameter throughout this package is the *standard
deviation*, not the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

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


def cdf(model: DensityModel, y):
    """Mixture CDF at ``y``; accepts +-inf (limits 0 and 1)."""
    # means and stddevs are finite, so +-inf inputs give +-inf z, which ndtr maps to 1/0 exactly
    return _shaped(np.sum(model._weights * ndtr(_z(model, y)), axis=0), y)
