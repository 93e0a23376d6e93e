"""Conservatism metric and the estimator-hierarchy report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import GaussianVec
from .risk import (
    McEstimate,
    RiskEstimate,
    directional_risk,
    risk_dth_order,
    risk_first_order,
    risk_spectral,
)

__all__ = ["conservatism", "gamma_or_inf", "ConservatismReport", "hierarchy_report"]


def conservatism(beta_t: float, beta_r: float) -> float:
    """Conservatism of a risk estimate beta_t against the real risk beta_r.

    gamma = beta_t / beta_r * sqrt((1 - beta_r^2) / (1 - beta_t^2)).
    Equals 1 for a perfect estimate, grows with overestimation, and is
    +inf at beta_t = 1 (an estimator pinned at certainty carries no
    information). For both risks small it behaves like the plain ratio
    beta_t / beta_r.
    """
    beta_r = float(beta_r)
    beta_t = float(beta_t)
    if not 0.0 < beta_r < 1.0:
        raise ValueError(f"beta_r must lie strictly in (0, 1), got {beta_r}")
    if not 0.0 < beta_t <= 1.0:
        raise ValueError(f"beta_t must lie in (0, 1], got {beta_t}")
    if beta_t == 1.0:
        return math.inf
    return beta_t / beta_r * math.sqrt((1.0 - beta_r * beta_r) / (1.0 - beta_t * beta_t))


@dataclass(frozen=True)
class ConservatismReport:
    """Per-method risk estimates and conservatism against one
    directional-simulation reference.

    ``hierarchy_ok`` certifies the exact estimator ordering
    dth <= first <= spectral plus statistical consistency of the
    reference with the tightest estimator.
    """

    beta_r: McEstimate
    spectral: RiskEstimate
    first_order: RiskEstimate
    dth_order: RiskEstimate
    gamma_spectral: float
    gamma_first_order: float
    gamma_dth_order: float
    hierarchy_ok: bool

    def to_dict(self) -> dict:
        def _num(x: float):
            return "inf" if math.isinf(x) else x

        return {
            "beta_r": self.beta_r.to_dict(),
            "estimates": {
                "spectral": self.spectral.to_dict(),
                "first_order": self.first_order.to_dict(),
                "dth_order": self.dth_order.to_dict(),
            },
            "gamma": {
                "spectral": _num(self.gamma_spectral),
                "first_order": _num(self.gamma_first_order),
                "dth_order": _num(self.gamma_dth_order),
            },
            "hierarchy_ok": self.hierarchy_ok,
        }


def gamma_or_inf(beta_t: float, beta_r: float) -> Optional[float]:
    """Conservatism of beta_t against a reference that may read 0 or 1.

    A reference of exactly 0 (a risk below what it resolves) makes the
    ratio unbounded; an estimate that underflows to exactly 0 gives a
    vanishing ratio; a reference of 1 leaves it undefined (None).
    """
    if beta_t <= 0.0:
        return 0.0
    if beta_r <= 0.0:
        return math.inf
    if beta_r >= 1.0:
        return None
    return conservatism(beta_t, beta_r)


def hierarchy_report(g: GaussianVec, mc_n: int, seed: int) -> ConservatismReport:
    """Compute the three multidimensional estimators, the reference risk
    (``directional_risk`` over ``mc_n`` directions), and their conservatism
    values on one instance.

    Requires mean <= 0 componentwise (the estimators are undefined
    otherwise). The hierarchy check is exact on the estimator chain and
    statistical (5 CI halfwidths) against the reference only.
    """
    if np.any(g.mean > 0.0):
        raise ValueError("hierarchy report requires mean <= 0 componentwise")
    spectral = risk_spectral(g)
    first = risk_first_order(g)
    dth = risk_dth_order(g)
    ref = directional_risk(g, mc_n, seed)
    hierarchy_ok = (
        dth.value <= first.value <= spectral.value
        and ref.estimate <= dth.value + 5.0 * ref.ci_halfwidth
    )
    return ConservatismReport(
        beta_r=ref,
        spectral=spectral,
        first_order=first,
        dth_order=dth,
        gamma_spectral=gamma_or_inf(spectral.value, ref.estimate),
        gamma_first_order=gamma_or_inf(first.value, ref.estimate),
        gamma_dth_order=gamma_or_inf(dth.value, ref.estimate),
        hierarchy_ok=bool(hierarchy_ok),
    )
