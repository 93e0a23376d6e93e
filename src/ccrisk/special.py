"""Special functions used by every risk bound.

Conventions:

- ``psi(r, d)`` is the tail function of the chi distribution with ``d``
  degrees of freedom, extended to negative arguments by ``psi(-r, d) = 1``
  so that signed standardized margins can be fed through it directly.
- ``sector_fraction(c, d)`` is the fraction of the total solid angle of the
  unit ``d``-sphere occupied by a hyperspherical sector of half-angle
  ``theta``, evaluated at ``c = cos(theta)``.

All functions are pure and deterministic; accuracy is limited only by the
underlying double-precision incomplete gamma/beta routines (absolute error
well below 1e-12 away from the extreme tails). The scalar functions validate
their arguments; ``psi_array`` and ``sector_fraction_array`` evaluate the
same expressions elementwise, unvalidated, for callers that already hold
checked arrays. Each formula is written once, in the array form, so a scalar
and an array evaluation at the same point agree bitwise.
"""

from __future__ import annotations

import math

from scipy import special as _sp

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "psi",
    "psi_array",
    "psi_inv",
    "sector_fraction",
    "sector_fraction_array",
]


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_dof(d: int, minimum: int = 1) -> int:
    if not isinstance(d, (int,)) or isinstance(d, bool):
        raise ValueError(f"degrees of freedom must be an int, got {d!r}")
    if d < minimum:
        raise ValueError(f"degrees of freedom must be >= {minimum}, got {d}")
    return d


def std_normal_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return float(_sp.ndtr(_check_finite("x", x)))


def std_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Rejects p in {0, 1}: the quantile is infinite there.
    """
    p = _check_finite("p", p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    return float(_sp.ndtri(p))


def psi(r: float, d: int) -> float:
    """Chi-distribution tail with d degrees of freedom: one minus the
    chi-squared CDF at r^2.

    Negative radii are mapped to probability 1 by convention, so signed
    standardized margins (negative when the nominal constraint is violated)
    can be passed without special-casing.
    """
    r = _check_finite("r", r)
    d = _check_dof(d)
    if r < 0.0:
        return 1.0
    return float(psi_array(r, d))


def psi_array(r, d: int):
    """``psi`` elementwise over nonnegative finite radii (a float or an
    array), without validation."""
    return _sp.gammaincc(d / 2.0, r * r / 2.0)


def psi_inv(beta: float, d: int) -> float:
    """Inverse of ``psi`` on r >= 0: the radius with tail probability beta.

    beta = 0 is rejected (infinite radius); beta = 1 maps to 0.
    """
    beta = _check_finite("beta", beta)
    d = _check_dof(d)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if beta == 1.0:
        return 0.0
    return math.sqrt(float(2.0 * _sp.gammainccinv(d / 2.0, beta)))


def sector_fraction(c: float, d: int) -> float:
    """Solid-angle fraction of a hyperspherical sector of half-angle theta.

    ``c`` is cos(theta) with theta in [0, pi/2], so c in [0, 1]. The fraction
    is the regularized incomplete beta I_{sin^2(theta)}((d-1)/2, 1/2), which reduces to theta/pi of the full
    circle (i.e. 2*theta/pi of the half-angle range) for d = 2.

    Only defined for d >= 2: the parameter (d-1)/2 degenerates at d = 1 and
    no consumer needs that case.
    """
    c = _check_finite("c", c)
    d = _check_dof(d, minimum=2)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    return float(sector_fraction_array(c, d))


def sector_fraction_array(c, d: int):
    """``sector_fraction`` elementwise over c in [0, 1] (a float or an
    array) and d >= 2, without validation."""
    return _sp.betainc((d - 1) / 2.0, 0.5, 1.0 - c * c)
