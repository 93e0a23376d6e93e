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

import functools
import math

import numpy as np
from scipy import special as _sp

__all__ = [
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
    """``psi`` elementwise over nonnegative radii (a float or an array;
    +inf gives 0), without validation."""
    return _sp.gammaincc(d / 2.0, r * r / 2.0)


# memoized: a constraint's transcriptions all ask for the same (beta, d);
# typed, so that 6.0 or True is not served the result cached for 6 or 1
@functools.lru_cache(typed=True)
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
    array) and d >= 2, without validation.

    The argument x = sin^2(theta) = 1 - c^2 loses digits at both ends when
    formed in double, which cost up to 4e-8 of the fraction at d = 25. It
    is formed as (1 - c)(1 + c), which does not cancel as c -> 1. As
    c -> 0 no double near 1 holds it: a rounding of x moves the fraction
    by about 1e-16 / c. So below c = 0.1, and below 1/sqrt(d) (x beyond
    the mean (d - 1)/d of the beta law, where the fraction exceeds about
    1/2), the fraction is taken as the complement 1 - I_{c^2}(1/2, (d-1)/2),
    from c^2 itself."""
    a = (d - 1) / 2.0
    x = (1.0 - c) * (1.0 + c)
    # a NumPy bool also for a float c; most calls have no wide sector, and
    # either way each element gets the same value
    wide = np.less(c, min(0.1, d**-0.5))
    if not wide.any():
        return _sp.betainc(a, 0.5, x)
    value = _sp.betainc(np.where(wide, 0.5, a), np.where(wide, a, 0.5), np.where(wide, c * c, x))
    return np.where(wide, 1.0 - value, value)
