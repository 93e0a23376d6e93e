"""Deterministic transcriptions of Gaussian chance constraints.

Each method replaces P(y <= 0 componentwise) >= 1 - beta with deterministic
margins of the form mean + backoff <= 0; margins <= 0 imply the chance
constraint holds. Margins are exposed (not just the boolean) so optimizers
can use them as residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from . import risk as _risk
from .gaussian import GaussianVec
from .special import psi_inv

__all__ = [
    "METHODS",
    "MULTIDIMENSIONAL",
    "Method",
    "TranscriptionVerdict",
    "bound_norm_spectral",
    "bound_linear_1d",
    "bound_nakka_chung",
    "transcribe_spectral_radius",
    "transcribe_first_order",
    "transcribe_dth_order",
    "transcribe_linear_1d",
    "transcribe_nakka_chung",
]


class Method(str, Enum):
    SPECTRAL_RADIUS = "spectral_radius"
    FIRST_ORDER = "first_order"
    DTH_ORDER = "dth_order"
    LINEAR_1D = "linear_1d"
    NAKKA_CHUNG = "nakka_chung"


@dataclass(frozen=True)
class TranscriptionVerdict:
    method: Method
    beta: float
    margins: np.ndarray
    satisfied: bool


def _check_beta(beta: float) -> float:
    beta = float(beta)
    # beta = 0 makes the backoff infinite, beta = 1 makes the constraint
    # vacuous; both are rejected everywhere.
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie strictly in (0, 1), got {beta}")
    return beta


def bound_norm_spectral(beta: float, n_u: int, rho: float) -> float:
    """Norm-constraint backoff [sqrt(2 ln(1/beta)) + sqrt(n_u)] * rho, the
    sqrt(n_u) shift applying only above control dimension 2: the inverse of
    ``risk.risk_norm_spectral`` in every control dimension."""
    beta = _check_beta(beta)
    if n_u < 1:
        raise ValueError("control dimension must be >= 1")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    shift = math.sqrt(n_u) if n_u > 2 else 0.0
    # -log(beta), not log(1 / beta), which overflows below beta ~ 5.6e-309
    return (math.sqrt(-2.0 * math.log(beta)) + shift) * rho


def bound_linear_1d(beta: float, var_y: float) -> float:
    """Exact scalar Gaussian backoff Phi^-1(1-beta) * sigma (necessary and
    sufficient in one dimension), as -Phi^-1(beta): 1 - beta would round
    away beta's digits, and to 1 below about 1.1e-16."""
    beta = _check_beta(beta)
    if var_y <= 0.0:
        raise ValueError("variance must be positive")
    return float(-ndtri(beta)) * math.sqrt(var_y)


def bound_nakka_chung(beta: float, var_y: float) -> float:
    """Distribution-free scalar backoff sqrt((1-beta)/beta) * sigma; more
    conservative than the exact Gaussian bound."""
    beta = _check_beta(beta)
    if var_y <= 0.0:
        raise ValueError("variance must be positive")
    # sqrt(beta) apart: (1 - beta) / beta * var_y overflows below beta ~ 5.6e-309
    return math.sqrt((1.0 - beta) * var_y) / math.sqrt(beta)


def _verdict(method: Method, beta: float, margins: np.ndarray) -> TranscriptionVerdict:
    # one reduction; a NaN margin fails the comparison either way
    return TranscriptionVerdict(method, beta, margins, bool(margins.max() <= 0.0))


def transcribe_spectral_radius(g: GaussianVec, beta: float) -> TranscriptionVerdict:
    """Back off every component by psi_inv(beta, d) times the square root of
    the covariance spectral radius."""
    beta = _check_beta(beta)
    backoff = psi_inv(beta, g.dim) * g.sqrt_lambda_max
    return _verdict(Method.SPECTRAL_RADIUS, beta, g.mean + backoff)


def transcribe_first_order(g: GaussianVec, beta: float) -> TranscriptionVerdict:
    """Back off each component by psi_inv(beta, d) times its own standard
    deviation."""
    beta = _check_beta(beta)
    return _verdict(Method.FIRST_ORDER, beta, g.mean + psi_inv(beta, g.dim) * g.sigma)


def transcribe_dth_order(g: GaussianVec, beta: float) -> TranscriptionVerdict:
    """Accept when the d-th-order risk estimate is within beta.

    Satisfied requires mean <= 0 with at least one strictly negative
    component, and the d-th-order risk at most beta. The condition itself is
    boolean; the reported margin vector prepends (risk - beta) to the mean
    as a diagnostic residual. An undefined estimate (a positive mean
    component) counts as risk 1. A mean of exactly 0 has risk psi(0, d) = 1
    too, so in both cases the leading margin 1 - beta > 0 rejects the
    constraint.
    """
    beta = _check_beta(beta)
    risk_value = _risk._dth_order_risk(g) if g.mean_nonpositive else 1.0
    return _verdict(Method.DTH_ORDER, beta, np.concatenate(([risk_value - beta], g.mean)))


def _scalar_verdict(method: Method, bound, g: GaussianVec, beta: float) -> TranscriptionVerdict:
    if g.dim != 1:
        raise ValueError(f"method {method.value!r} only applies to scalar constraints")
    return _verdict(method, beta, np.array([float(g.mean[0]) + bound(beta, float(g.cov[0, 0]))]))


def transcribe_linear_1d(g: GaussianVec, beta: float) -> TranscriptionVerdict:
    """Back off a scalar constraint by the exact Gaussian bound."""
    return _scalar_verdict(Method.LINEAR_1D, bound_linear_1d, g, _check_beta(beta))


def transcribe_nakka_chung(g: GaussianVec, beta: float) -> TranscriptionVerdict:
    """Back off a scalar constraint by the distribution-free bound."""
    return _scalar_verdict(Method.NAKKA_CHUNG, bound_nakka_chung, g, _check_beta(beta))


# Every transcription with the risk estimator at which it becomes tight.
METHODS = {
    Method.SPECTRAL_RADIUS: (transcribe_spectral_radius, _risk.risk_spectral),
    Method.FIRST_ORDER: (transcribe_first_order, _risk.risk_first_order),
    Method.DTH_ORDER: (transcribe_dth_order, _risk.risk_dth_order),
    Method.LINEAR_1D: (transcribe_linear_1d, _risk.risk_exact_1d),
    Method.NAKKA_CHUNG: (transcribe_nakka_chung, _risk.risk_nakka_chung),
}
# The methods that apply in any dimension, loosest first; the others are
# scalar-only.
MULTIDIMENSIONAL = (Method.SPECTRAL_RADIUS, Method.FIRST_ORDER, Method.DTH_ORDER)
