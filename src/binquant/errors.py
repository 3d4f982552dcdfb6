"""Semantic exceptions shared across the quantizer library."""

from __future__ import annotations


class QuantizerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(QuantizerError, ValueError):
    """A model, prior, threshold vector, or channel spec violates its contract."""


class DegenerateChannelError(QuantizerError):
    """The correct-decision masses sit at machine 0/1, so the stationarity
    function has no usable value at this level (logs would be unbounded).

    The message names the offending level and masses.
    """

    def __init__(self, level: float, correct0: float, correct1: float):
        super().__init__(
            f"degenerate channel at level a={float(level)!r}: f={float(correct0)!r}, g={float(correct1)!r} "
            f"within 1e-12 of {{0, 1}}"
        )


class NoSignChangeError(QuantizerError):
    """No + to - sign change of the stationarity function can be bracketed
    in the admissible level range, so no optimum can be narrowed; the
    message explains why."""


class NotConvergedError(QuantizerError):
    """A bracketed search ran out of steps with a bracket still open: the
    search over the level (``max_iter`` narrowing rounds, each narrowing
    every bracket toward ``tol_a``) or the polishing of level-set roots (200
    steps per batch)."""
