"""Transcription of multidimensional Gaussian chance constraints into
deterministic margin constraints, with failure-risk estimators, a seeded
Monte-Carlo reference, and a conservatism metric for comparing methods."""

from .conservatism import ConservatismReport, conservatism, hierarchy_report
from .gaussian import (
    GaussianVec,
    LinearConstraintModel,
    constraint_distribution,
    linearized_norm_constraint,
    sample,
)
from .linalg import (
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    cholesky_lower,
    congruence,
    spectral_radius_sqrt,
)
from .risk import (
    McEstimate,
    RiskEstimate,
    mc_risk,
    mc_sector_probability,
    risk_dth_order,
    risk_exact_1d,
    risk_first_order,
    risk_nakka_chung,
    risk_norm_spectral,
    risk_spectral,
)
from .transcription import (
    METHODS,
    Method,
    TranscriptionVerdict,
    bound_linear_1d,
    bound_nakka_chung,
    bound_norm_highdim,
    bound_norm_lowdim,
    transcribe_dth_order,
    transcribe_first_order,
    transcribe_linear_1d,
    transcribe_nakka_chung,
    transcribe_spectral_radius,
)

__version__ = "0.1.0"
