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

from . import risk as _risk
from .gaussian import GaussianVec
from .special import psi_inv, std_normal_quantile

__all__ = [
    "METHODS",
    "Method",
    "TranscriptionVerdict",
    "bound_norm_highdim",
    "bound_norm_lowdim",
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

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "beta": self.beta,
            "margins": np.asarray(self.margins).tolist(),
            "satisfied": bool(self.satisfied),
        }


def _check_beta(beta: float) -> float:
    beta = float(beta)
    # beta = 0 makes the backoff infinite, beta = 1 makes the constraint
    # vacuous; both are rejected everywhere.
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie strictly in (0, 1), got {beta}")
    return beta


def bound_norm_highdim(beta: float, n_u: int, rho: float) -> float:
    """Norm-constraint safety bound [sqrt(2 ln(1/beta)) + sqrt(n_u)] * rho,
    valid in any control dimension."""
    beta = _check_beta(beta)
    if n_u < 1:
        raise ValueError("control dimension must be >= 1")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    return (math.sqrt(2.0 * math.log(1.0 / beta)) + math.sqrt(n_u)) * rho


def bound_norm_lowdim(beta: float, rho: float) -> float:
    """Sharper norm-constraint bound sqrt(2 ln(1/beta)) * rho for control
    dimension 1 or 2."""
    beta = _check_beta(beta)
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    return math.sqrt(2.0 * math.log(1.0 / beta)) * rho


def bound_linear_1d(beta: float, var_y: float) -> float:
    """Exact scalar Gaussian backoff Phi^-1(1-beta) * sigma (necessary and
    sufficient in one dimension)."""
    beta = _check_beta(beta)
    if var_y <= 0.0:
        raise ValueError("variance must be positive")
    return std_normal_quantile(1.0 - beta) * math.sqrt(var_y)


def bound_nakka_chung(beta: float, var_y: float) -> float:
    """Distribution-free scalar backoff sqrt((1-beta)/beta) * sigma; more
    conservative than the exact Gaussian bound."""
    beta = _check_beta(beta)
    if var_y <= 0.0:
        raise ValueError("variance must be positive")
    return math.sqrt((1.0 - beta) / beta * var_y)


def _verdict(method: Method, beta: float, margins: np.ndarray) -> TranscriptionVerdict:
    return TranscriptionVerdict(method, beta, margins, bool(np.all(margins <= 0.0)))


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
    sigma = np.sqrt(np.diag(g.cov))
    return _verdict(Method.FIRST_ORDER, beta, g.mean + psi_inv(beta, g.dim) * sigma)


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
    estimate = _risk.risk_dth_order(g)
    risk_value = estimate.value if estimate.defined else 1.0
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
