"""Transcription of multidimensional Gaussian chance constraints into
deterministic margin constraints, with failure-risk estimators, a seeded
importance-sampling (ALOE) reference, and a conservatism metric for
comparing methods. The plain-counting oracles that check them live with
the tests."""

from .conservatism import ConservatismReport, hierarchy_report, hierarchy_reports
from .gaussian import GaussianVec, constraint_distribution, linearized_norm_constraint
from .linalg import NotPositiveDefiniteError, NotPositiveSemidefiniteError, congruence, spectral_radius_sqrt
from .risk import (
    McEstimate,
    RiskEstimate,
    aloe_risks,
    risk_dth_order,
    risk_exact_1d,
    risk_first_order,
    risk_nakka_chung,
    risk_norm_spectral,
    risk_spectral,
)
from .transcription import (
    METHODS,
    MULTIDIMENSIONAL,
    Method,
    TranscriptionVerdict,
    bound_linear_1d,
    bound_nakka_chung,
    bound_norm_spectral,
    transcribe_dth_order,
    transcribe_first_order,
    transcribe_linear_1d,
    transcribe_nakka_chung,
    transcribe_spectral_radius,
)

__version__ = "0.1.0"
