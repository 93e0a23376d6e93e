"""Failure-risk estimators and the Monte-Carlo reference oracle.

Every estimator is an upper bound on the real failure risk
beta_R = 1 - P(y <= 0 componentwise); the Monte-Carlo routines provide the
seeded reference used to measure conservatism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import special
from .gaussian import GaussianVec, sample
from .linalg import spectral_radius_sqrt

__all__ = [
    "RiskEstimate",
    "McEstimate",
    "risk_exact_1d",
    "risk_nakka_chung",
    "risk_norm_spectral",
    "risk_spectral",
    "risk_first_order",
    "risk_dth_order",
    "mc_risk",
    "mc_sector_probability",
    "wilson_interval",
]

_MC_CHUNK = 2_000_000


@dataclass(frozen=True)
class RiskEstimate:
    """A failure-probability estimate tagged with its method.

    ``defined`` is False when the method's existence condition fails (for
    example a positive mean component); ``value`` is None in that case.
    """

    method: str
    value: Optional[float]
    defined: bool = True

    def __post_init__(self) -> None:
        if self.defined:
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise ValueError(f"risk value out of [0, 1]: {self.value!r}")
        elif self.value is not None:
            raise ValueError("undefined estimate must not carry a value")

    def to_dict(self) -> dict:
        return {"method": self.method, "value": self.value, "defined": self.defined}


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo risk estimate with its 95% Wilson confidence interval."""

    estimate: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError("confidence interval does not bracket the estimate")

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves sensibly at extreme proportions (0 or n successes), unlike the
    normal approximation.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # center - half equals 0 (resp. center + half equals 1) analytically at
    # the extremes; round-off can land a hair on the wrong side of phat
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return lo, hi


def _require_scalar(g: GaussianVec) -> None:
    if g.dim != 1:
        raise ValueError(f"expected a scalar distribution, got dim {g.dim}")


def risk_exact_1d(g: GaussianVec) -> RiskEstimate:
    """Exact failure risk of a scalar Gaussian constraint, Phi(mean/sigma).

    Written as Phi(mean/sigma) rather than 1 - Phi(-mean/sigma), which
    loses every digit beyond about 8 sigma.
    """
    _require_scalar(g)
    mean = float(g.mean[0])
    sigma = math.sqrt(float(g.cov[0, 0]))
    return RiskEstimate("exact_1d", special.std_normal_cdf(mean / sigma))


def risk_nakka_chung(g: GaussianVec) -> RiskEstimate:
    """Variance-ratio risk bound var / (var + mean^2) for a scalar constraint.

    Only defined for mean <= 0.
    """
    _require_scalar(g)
    mean = float(g.mean[0])
    if mean > 0.0:
        return RiskEstimate("nakka_chung", None, defined=False)
    var = float(g.cov[0, 0])
    return RiskEstimate("nakka_chung", var / (var + mean * mean))


def risk_norm_spectral(u_mean, u_cov, u_max: float) -> RiskEstimate:
    """Risk bound for the norm constraint ||u|| <= u_max via the spectral
    radius of the control covariance.

    For control dimension 1 or 2 the bound is exp(-m^2/2) with
    m = (||u_mean|| - u_max) / rho; above dimension 2 the sqrt(N_u) shift
    applies and the bound only exists while m + sqrt(N_u) <= 0.
    """
    u_mean = np.atleast_1d(np.asarray(u_mean, dtype=float))
    u_cov = np.asarray(u_cov, dtype=float)
    u_max = float(u_max)
    if not (np.isfinite(u_mean).all() and np.isfinite(u_cov).all() and math.isfinite(u_max)):
        raise ValueError("u_mean, u_cov and u_max must be finite")
    n_u = u_mean.shape[0]
    margin = float(np.linalg.norm(u_mean)) - u_max
    if margin >= 0.0:
        raise ValueError("nominal control violates the norm constraint")
    rho = spectral_radius_sqrt(u_cov)
    scaled = margin / rho
    if n_u > 2:
        scaled += math.sqrt(n_u)
        if scaled > 0.0:
            return RiskEstimate("norm_spectral", None, defined=False)
    return RiskEstimate("norm_spectral", min(math.exp(-0.5 * scaled * scaled), 1.0))


def risk_spectral(g: GaussianVec) -> RiskEstimate:
    """Spectral-radius risk bound psi(min(-mean) / rho(cov), d)."""
    if np.any(g.mean > 0.0):
        return RiskEstimate("spectral", None, defined=False)
    return RiskEstimate("spectral", special.psi(float(np.min(-g.mean)) / g.sqrt_lambda_max, g.dim))


def risk_first_order(g: GaussianVec) -> RiskEstimate:
    """First-order risk bound psi(min r, d) from the standardized margins."""
    if np.any(g.mean > 0.0):
        return RiskEstimate("first_order", None, defined=False)
    return RiskEstimate("first_order", special.psi(float(np.min(g.radii)), g.dim))


def dth_order_value(radii) -> float:
    """d-th-order risk from nonnegative standardized margins.

    With the radii sorted, r_1 <= ... <= r_d, shell i is the spherical
    shell between r_{i-1} and r_i (r_0 = 0) and has probability
    width_i = psi(r_{i-1}) - psi(r_i). Closer constraints j < i cut the
    sectors cut_i = sum_j sector_fraction(r_j / r_i) off it, half each. The
    failure risk is psi(r_d) plus the cut part of every shell,

        psi(r_d) + sum_i width_i * min(1, cut_i / 2),

    which equals 1 - sum_i width_i * max(0, 1 - cut_i / 2) because the
    widths sum to 1 - psi(r_d), but adds only nonnegative terms, so it
    keeps its relative accuracy in the deep tail where 1 - (...) cancels.

    One pass evaluates psi over the radii and the sector fractions over the
    ratio matrix r_j / r_i, clamped to 1 so that j >= i adds exactly 0.
    Rows start at the first nonzero radius and never at the first radius:
    the first shell has nothing closer to cut it, and a zero radius has a
    zero-width shell.
    """
    r = np.array(radii, dtype=float, ndmin=1)
    r.sort()
    d = r.shape[0]
    if not (r[0] >= 0.0 and r[-1] < math.inf):
        raise ValueError("radii must be finite and nonnegative")
    p = special.psi_array(r, d)
    k = max(int(r.searchsorted(0.0, "right")), 1)
    cut = special.sector_fraction_array(np.minimum(r / r[k:, None], 1.0), d).sum(axis=1)
    width = p[k - 1 : -1] - p[k:]
    value = float(p[-1] + width @ np.minimum(1.0, 0.5 * cut))
    # value >= psi(r_d) holds by construction and value <= psi(r_1) in
    # exact arithmetic; clamping the upper end to the same psi expression
    # risk_first_order evaluates keeps beta_d <= beta_1 exact under round-off.
    return min(value, float(p[0]))


def risk_dth_order(g: GaussianVec) -> RiskEstimate:
    """d-th-order risk bound; the tightest of the three multidimensional
    estimators (coincides with the others at d = 1)."""
    if np.any(g.mean > 0.0):
        return RiskEstimate("dth_order", None, defined=False)
    return RiskEstimate("dth_order", g.dth_order_risk)


def mc_risk(g: GaussianVec, n: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the real failure risk 1 - P(y <= 0).

    Plain counting with a fixed chunked sequential stream: the result is
    identical for a given seed regardless of chunk size. No importance
    sampling, so size n to the scale of the risk being measured.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    failures = 0
    remaining = int(n)
    while remaining > 0:
        m = min(remaining, _MC_CHUNK)
        z = rng.standard_normal((m, g.dim))
        y = g.mean + z @ g.chol.T
        failures += int(np.count_nonzero(np.any(y > 0.0, axis=1)))
        remaining -= m
    lo, hi = wilson_interval(failures, n)
    return McEstimate(failures / n, lo, hi, int(n), int(seed))


def mc_sector_probability(
    d: int,
    r1: float,
    r2: float,
    axis,
    theta: float,
    n: int,
    seed: int,
) -> McEstimate:
    """Monte-Carlo probability that a standard normal lies in the shell
    sector {r1 < ||z|| <= r2, angle(z, axis) <= theta}.

    Membership is tested geometrically per sample; this is the independent
    oracle for the closed form sector_fraction(cos theta, d)/2 * (psi(r1) -
    psi(r2)).
    """
    if d < 2:
        raise ValueError("sector geometry needs d >= 2")
    if not 0.0 <= r1 <= r2:
        raise ValueError("need 0 <= r1 <= r2")
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    axis = np.atleast_1d(np.asarray(axis, dtype=float))
    if axis.shape != (d,):
        raise ValueError(f"axis must have shape ({d},), got {axis.shape}")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit vector")
    if n < 1:
        raise ValueError("need at least one sample")

    cos_theta = math.cos(theta)
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    hits = 0
    remaining = int(n)
    while remaining > 0:
        m = min(remaining, _MC_CHUNK)
        z = rng.standard_normal((m, d))
        norms = np.linalg.norm(z, axis=1)
        in_shell = (norms > r1) & (norms <= r2)
        # angle(z, axis) <= theta, guarded against zero-norm samples
        proj = z @ axis
        in_cone = proj >= cos_theta * norms
        hits += int(np.count_nonzero(in_shell & in_cone))
        remaining -= m
    lo, hi = wilson_interval(hits, n)
    return McEstimate(hits / n, lo, hi, int(n), int(seed))
