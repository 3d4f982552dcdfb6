"""Gaussian-mixture conditional densities with exact partition masses.

Each conditional density of the channel output is a finite Gaussian mixture.
All probability masses are computed in closed form through the normal CDF
(error function), never by quadrature: :func:`partition_mass` evaluates the
CDF once at every threshold and sums the differences over alternate
segments (:func:`_alternating_mass`, which also serves the batched level
functionals of :mod:`binquant.channel`), so masses are exact to
floating-point rounding and the two parities always add up to the total
mass.

The second Gaussian parameter throughout this package is the *standard
deviation*, not the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import ndtr

from .errors import InvalidSpecError

__all__ = [
    "GaussianComponent",
    "DensityModel",
    "Prior",
    "Thresholds",
    "pdf",
    "log_pdf",
    "cdf",
    "partition_mass",
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

    The component parameters are also held as read-only arrays, built once
    here: ``_mus``, ``_sigmas``, ``_weights`` and ``_log_coef``, the
    per-component constant log w - log sigma - log sqrt(2 pi) of the log-pdf.
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
        mus = np.array([c.mean for c in comps])
        sigmas = np.array([c.stddev for c in comps])
        weights = np.array([c.weight for c in comps])
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


def validate_thresholds(thresholds) -> Thresholds:
    """Check that thresholds are finite and strictly increasing; return a tuple."""
    h = tuple(float(t) for t in thresholds)
    for t in h:
        if not math.isfinite(t):
            raise InvalidSpecError(f"thresholds must be finite, got {t!r}")
    for lo, hi in zip(h, h[1:]):
        if not lo < hi:
            raise InvalidSpecError(f"thresholds must be strictly increasing, got {h!r}")
    return h


def pdf(model: DensityModel, y):
    """Mixture density at ``y`` (scalar or array): sum_k w_k N(y; mu_k, sigma_k)."""
    z = (np.asarray(y, dtype=float)[..., None] - model._mus) / model._sigmas
    vals = np.sum(np.exp(model._log_coef - 0.5 * z * z), axis=-1)
    return float(vals) if np.ndim(y) == 0 else vals


def log_pdf(model: DensityModel, y):
    """Log of the mixture density, computed in log-space (no tail underflow)."""
    z = (np.asarray(y, dtype=float)[..., None] - model._mus) / model._sigmas
    comp_logs = -0.5 * z * z + model._log_coef
    # log-sum-exp over the component axis; comp_logs is always finite
    top = comp_logs.max(axis=-1, keepdims=True)
    vals = top[..., 0] + np.log(np.exp(comp_logs - top).sum(axis=-1))
    return float(vals) if np.ndim(y) == 0 else vals


def cdf(model: DensityModel, y):
    """Mixture CDF at ``y``; accepts +-inf (limits 0 and 1)."""
    # means and stddevs are finite, so +-inf inputs give +-inf z, which ndtr maps to 1/0 exactly
    z = (np.asarray(y, dtype=float)[..., None] - model._mus) / model._sigmas
    vals = np.sum(model._weights * ndtr(z), axis=-1)
    return float(vals) if np.ndim(y) == 0 else vals


def partition_mass(
    model: DensityModel,
    thresholds: Thresholds,
    parity: Literal["odd", "even"],
) -> float:
    """Mass of ``model`` on alternating segments of the threshold partition.

    ``n`` thresholds split the line into ``n + 1`` contiguous segments.
    ``parity="odd"`` selects the 1st, 3rd, 5th, ... segments, i.e.
    (-inf, h1), [h2, h3), ...; ``parity="even"`` selects [h1, h2), [h3, h4),
    and so on.  The two parities always sum to the total mass.
    """
    if parity not in ("odd", "even"):
        raise InvalidSpecError(f"parity must be 'odd' or 'even', got {parity!r}")
    h = validate_thresholds(thresholds)
    return _alternating_mass(cdf(model, np.asarray(h)) if h else np.empty(0), parity)


def _alternating_mass(cdf_at_thresholds: np.ndarray, parity: Literal["odd", "even"]) -> float:
    """The mass of :func:`partition_mass` from the CDF values at the thresholds.

    Sums the alternate CDF differences exactly (``math.fsum``) and clamps
    the sum into [0, 1].  With no thresholds the whole line is the one odd
    segment.
    """
    segments = np.diff(np.concatenate(([0.0], cdf_at_thresholds, [1.0])))
    return min(1.0, max(0.0, math.fsum(segments[0 if parity == "odd" else 1 :: 2])))
