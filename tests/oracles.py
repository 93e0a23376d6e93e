"""Test oracles that share no code path with the estimators they check.

Plain Monte-Carlo counting (``mc_risk``, ``mc_sector_probability``) with a
Wilson interval, and seeded sampling of a ``GaussianVec`` (``sample``). The
tests hold the closed forms and the ALOE reference to them.
``dth_order_full_matrix`` is the d-th-order value summed over the whole
ratio matrix, which the library's value must match bit for bit. The exact
risks of independent (``mp_independent_risk``) and equicorrelated
(``mp_equicorrelated_risk``) components are mpmath evaluations that keep
their relative accuracy into the deep tail.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import betainc, gammaincc

from ccrisk.gaussian import GaussianVec
from ccrisk.risk import McEstimate

# rows of normals the counting oracles draw at a time, which bounds their
# memory; the counts do not depend on it
_MC_CHUNK = 65_536
_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves sensibly at extreme proportions (0 or n successes), unlike the
    normal approximation.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    phat = successes / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (phat + _Z95 * _Z95 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + _Z95 * _Z95 / (4 * n * n)) / denom
    # center - half equals 0 (resp. center + half equals 1) analytically at
    # the extremes; round-off can land a hair on the wrong side of phat
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return lo, hi


def _count(n: int, d: int, seed: int, hit) -> McEstimate:
    """Share of ``n`` standard normal rows z in R^d for which ``hit(z)``
    holds, with its Wilson interval.

    The rows come from one sequential Philox stream, ``_MC_CHUNK`` at a
    time, so the count is identical for a given seed whatever the chunk.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    hits = 0
    for start in range(0, n, _MC_CHUNK):
        z = rng.standard_normal((min(_MC_CHUNK, n - start), d))
        hits += int(np.count_nonzero(hit(z)))
    lo, hi = wilson_interval(hits, n)
    return McEstimate(hits / n, lo, hi, int(n), int(seed), "counting")


def mc_risk(g: GaussianVec, n: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the real failure risk 1 - P(y <= 0).

    Plain counting, without importance sampling, so size n to the scale
    of the risk being measured.
    """
    return _count(n, g.dim, seed, lambda z: np.any(g.mean + z @ g.chol.T > 0.0, axis=1))


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
    cos_theta = math.cos(theta)

    def in_sector(z):
        norms = np.linalg.norm(z, axis=1)
        # angle(z, axis) <= theta, guarded against zero-norm samples
        return (norms > r1) & (norms <= r2) & (z @ axis >= cos_theta * norms)

    return _count(n, d, seed, in_sector)


def sample(g: GaussianVec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` samples of g, deterministically for a given seed, from the
    counter-based Philox generator, so that identical ``(g, n, seed)`` gives
    bitwise-identical output on any platform."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    z = rng.standard_normal((int(n), g.dim))
    return g.mean + z @ g.chol.T


def dth_order_full_matrix(radii) -> float:
    """``risk.dth_order_value`` with the sector fractions evaluated on the
    whole (d - k) x d ratio matrix r_j / r_i, clamped to 1 so that every
    pair j >= i adds exactly 0, and the chi tail and sector fraction
    written out from scipy. The library evaluates only the pairs j < i."""
    r = np.array(radii, dtype=float, ndmin=1)
    r.sort()
    d = r.shape[0]
    p = gammaincc(d / 2.0, r * r / 2.0)
    k = max(int(r.searchsorted(0.0, "right")), 1)
    with np.errstate(over="ignore"):  # r_j / r_i overflows above a subnormal r_i
        c = np.minimum(r / r[k:, None], 1.0)
    # the sector fraction's argument 1 - c^2 as special.sector_fraction_array
    # forms it: (1 - c)(1 + c), or, for small c, the complement from c^2
    a, x = (d - 1) / 2.0, (1.0 - c) * (1.0 + c)
    wide = c < min(0.1, d**-0.5)
    fraction = betainc(np.where(wide, 0.5, a), np.where(wide, a, 0.5), np.where(wide, c * c, x))
    cut = np.where(wide, 1.0 - fraction, fraction).sum(axis=1)
    width = p[k - 1 : -1] - p[k:]
    value = float(p[-1] + width @ np.minimum(1.0, 0.5 * cut))
    return min(value, float(p[0]))


def mp_independent_risk(radii):
    """Exact risk 1 - prod Phi(r_i) of independent unit components, as
    -expm1(sum log1p(-Phi(-r_i))) so the deep tail keeps its digits."""
    with mpmath.workdps(40):
        return -mpmath.expm1(mpmath.fsum(mpmath.log1p(-mpmath.ncdf(-mpmath.mpf(float(x)))) for x in radii))


def mp_equicorrelated_risk(margin: float, rho: float, d: int):
    """Exact risk 1 - P(all y_i <= margin) of d unit normals with pairwise
    correlation rho in [0, 1), through the common factor z:
    y_i = sqrt(rho) z + sqrt(1 - rho) e_i, so that

        risk = int phi(z) (1 - Phi(x(z))^d) dz,  x(z) = (margin - sqrt(rho) z) / sqrt(1 - rho),

    with 1 - Phi^d written as -expm1(d log1p(-Phi(-x))): the form
    1 - int phi Phi^d cancels in the deep tail."""
    with mpmath.workdps(40):
        a, s, c = mpmath.mpf(margin), mpmath.sqrt(mpmath.mpf(rho)), mpmath.sqrt(1 - mpmath.mpf(rho))

        def integrand(z):
            x = (a - s * z) / c
            return mpmath.npdf(z) * -mpmath.expm1(d * mpmath.log1p(-mpmath.ncdf(-x)))

        # the integrand's mass lies near z = sqrt(rho) margin
        peak = a * s
        return mpmath.quad(integrand, [-mpmath.inf, peak - 4, peak, peak + 4, mpmath.inf])
