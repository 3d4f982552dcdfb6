"""Mutual-information-maximizing binary quantizers for noisy binary-input channels.

Given a binary input with prior (p0, p1) and two Gaussian-mixture conditional
output densities, this package finds the binary quantizer (a finite threshold
vector with alternating labels) that maximizes I(X;Z), certifies the solution
against an independent brute-force oracle, and classifies channels for which
a single threshold is provably enough.
"""

from .channel import (
    ChannelMatrix,
    LevelFunctionals,
    channel_matrix,
    level_functionals,
    mutual_information,
    stationarity,
)
from .density import (
    DensityModel,
    GaussianComponent,
    Prior,
    Thresholds,
    cdf,
    log_pdf,
)
from .errors import (
    DegenerateChannelError,
    InvalidSpecError,
    NoSignChangeError,
    NotConvergedError,
    QuantizerError,
)
from .likelihood import (
    ChannelSpec,
    LevelSet,
    Monotonicity,
    MonotonicityReport,
    TranslateConcavity,
    channel_spec,
    classify_monotonicity,
    find_level_set,
    likelihood_ratio,
    posterior,
    translate_log_concavity,
)
from .oracle import StructuralCheck, OracleResult, SweepRow, grid_search, structural_checks, sweep_levels
from .solver import (
    QuantizerDesign,
    SolverConfig,
    predict_single_threshold,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianComponent",
    "DensityModel",
    "Prior",
    "Thresholds",
    "log_pdf",
    "cdf",
    "ChannelSpec",
    "channel_spec",
    "Monotonicity",
    "MonotonicityReport",
    "TranslateConcavity",
    "LevelSet",
    "likelihood_ratio",
    "posterior",
    "classify_monotonicity",
    "translate_log_concavity",
    "find_level_set",
    "ChannelMatrix",
    "LevelFunctionals",
    "channel_matrix",
    "mutual_information",
    "level_functionals",
    "stationarity",
    "SolverConfig",
    "QuantizerDesign",
    "solve",
    "predict_single_threshold",
    "OracleResult",
    "SweepRow",
    "StructuralCheck",
    "grid_search",
    "sweep_levels",
    "structural_checks",
    "QuantizerError",
    "InvalidSpecError",
    "DegenerateChannelError",
    "NoSignChangeError",
    "NotConvergedError",
    "__version__",
]
