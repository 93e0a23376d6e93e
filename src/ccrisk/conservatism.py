"""Conservatism metric and the estimator-hierarchy report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .gaussian import GaussianVec
from .risk import REF_TOL, McEstimate, RiskEstimate, aloe_risks
from .transcription import METHODS, MULTIDIMENSIONAL

__all__ = ["conservatism", "gamma_or_inf", "ConservatismReport", "hierarchy_report", "hierarchy_reports"]


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
    """Per-method risk estimates and conservatism against one ALOE
    reference (``risk.aloe_risks``).

    ``estimates`` and ``gamma`` hold the estimators of the methods in
    ``transcription.MULTIDIMENSIONAL``, in its order (loosest first), keyed
    by ``RiskEstimate.method``: ``spectral``, ``first_order``,
    ``dth_order``. ``hierarchy_ok`` certifies the exact estimator ordering
    dth <= first <= spectral plus statistical consistency of the reference
    with the tightest estimator.
    """

    beta_r: McEstimate
    estimates: dict[str, RiskEstimate]
    gamma: dict[str, Optional[float]]
    hierarchy_ok: bool


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


def hierarchy_reports(gs, mc_n: int, seeds, ref_tol: float = REF_TOL) -> list[ConservatismReport]:
    """Compute the estimators of ``transcription.MULTIDIMENSIONAL``, the
    reference risk (``aloe_risks`` to a relative half-width of ``ref_tol``,
    at most ``mc_n`` draws, one seed per distribution), and their
    conservatism values on each distribution in ``gs``.

    Requires mean <= 0 componentwise (the estimators are undefined
    otherwise); the reference checks every input before it draws. Each
    report depends only on its (distribution, mc_n, ref_tol, seed). The
    hierarchy check is exact on the estimator chain and statistical (5 CI
    halfwidths) against the reference only.
    """
    gs = list(gs)
    reports = []
    for g, ref in zip(gs, aloe_risks(gs, mc_n, seeds, ref_tol)):
        estimates = {e.method: e for e in (METHODS[m][1](g) for m in MULTIDIMENSIONAL)}
        values = [e.value for e in estimates.values()]
        hierarchy_ok = bool(
            all(a >= b for a, b in zip(values, values[1:]))
            and ref.estimate <= values[-1] + 5.0 * ref.ci_halfwidth
        )
        gamma = {m: gamma_or_inf(e.value, ref.estimate) for m, e in estimates.items()}
        reports.append(ConservatismReport(ref, estimates, gamma, hierarchy_ok))
    return reports


def hierarchy_report(g: GaussianVec, mc_n: int, seed: int, ref_tol: float = REF_TOL) -> ConservatismReport:
    """The report on one distribution; a batch of one of ``hierarchy_reports``."""
    return hierarchy_reports([g], mc_n, [seed], ref_tol)[0]
