"""Gaussian models of constraint outputs.

A constraint output y is modeled as y ~ N(mean, cov). This module builds
that distribution from linearized constraints with state feedback and
computes the signed standardized margins used by the risk estimators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _cholesky, _sqrt_lambda_max, as_symmetric, congruence

__all__ = [
    "GaussianVec",
    "constraint_distribution",
    "linearized_norm_constraint",
]


class _cached_property:
    """``functools.cached_property`` as of Python 3.12, without a lock: the
    value is computed on first access and stored in the instance's
    ``__dict__``, which later accesses read directly (this descriptor
    defines no ``__set__``). Before 3.12 the standard one takes a lock per
    attribute, shared by every instance, on each first access: about 2% of
    the estimate chain's time on Python 3.11 (2-core Intel Xeon). Threads
    that race on a first access each compute the same value."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class GaussianVec:
    """Mean and positive-definite covariance of a constraint output.

    Finiteness and positive definiteness are checked once at construction
    (fail fast, with the error pointing at the construction site); the
    Cholesky factor is kept for sampling. ``mean``, ``cov`` and ``chol`` are
    read-only copies, so the quantities the estimators share
    (``mean_nonpositive``, ``sigma``, ``radii``, ``sqrt_lambda_max``) are
    computed once, on first use, and cached, each by the estimators that
    read it. ``risk`` keeps two more on the instance the same way: the chi
    tails of the sorted radii, which the first-order, spectral and
    d-th-order risks share, and the d-th-order risk (``dth_order_risk``).
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float, ndmin=1)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        cov = np.asarray(self.cov, dtype=float)
        # NaN would pass the symmetry check and the Cholesky pivots silently
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        cov = as_symmetric(cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has length {mean.shape[0]} but cov is {cov.shape}"
            )
        if not mean.shape[0]:
            raise ValueError("mean is empty: a constraint output needs at least one component")
        for name, value in (("mean", mean), ("cov", cov), ("chol", _cholesky(cov))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @_cached_property
    def mean_nonpositive(self) -> bool:
        """mean <= 0 in every component: the estimators' and reference's domain."""
        return float(self.mean.max()) <= 0.0

    @_cached_property
    def sigma(self) -> np.ndarray:
        """Marginal standard deviations sqrt(diag(cov)) (read-only)."""
        s = np.sqrt(self.cov.diagonal())
        s.flags.writeable = False
        return s

    @_cached_property
    def radii(self) -> np.ndarray:
        """Signed standardized margins r_i = -mean_i / sigma_i (read-only).

        Positive entries mean the nominal constraint i is satisfied; negative
        entries mean it is violated. A margin beyond double range is +inf:
        a constraint that is never violated.
        """
        with np.errstate(over="ignore"):
            r = -self.mean / self.sigma
        r.flags.writeable = False
        return r

    @_cached_property
    def sqrt_lambda_max(self) -> float:
        """Square root of the largest covariance eigenvalue, which is
        positive: the covariance passed the Cholesky pivot test. It is
        never below ``sigma.max()``, as in exact arithmetic."""
        cov = self.cov
        # a 1 x 1 matrix is its own eigenvalue, which eigvalsh returns exactly
        lam_max = float(cov[0, 0]) if cov.shape[0] == 1 else float(np.linalg.eigvalsh(cov)[-1])
        return _sqrt_lambda_max(cov, lam_max)

    @property
    def dth_order_risk(self) -> float:
        """d-th-order risk value from the radii, computed once and kept;
        needs mean <= 0."""
        from .risk import _dth_order_risk  # risk builds on this module

        return _dth_order_risk(self)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def constraint_distribution(f_val, grad_x, grad_u, gain, state_cov) -> GaussianVec:
    """Distribution of the linearized constraint output
    y = f_val + (grad_x + grad_u @ gain) @ dx under state feedback, with
    dx ~ N(0, state_cov)."""
    f_val = np.atleast_1d(np.asarray(f_val, dtype=float))
    grad_x = np.atleast_2d(np.asarray(grad_x, dtype=float))
    grad_u = np.atleast_2d(np.asarray(grad_u, dtype=float))
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    state_cov = as_symmetric(state_cov)
    d, n_x = grad_x.shape
    if f_val.shape[0] != d:
        raise ValueError("f_val length does not match gradient rows")
    if grad_u.shape[0] != d:
        raise ValueError("grad_x and grad_u row counts differ")
    if gain.shape != (grad_u.shape[1], n_x):
        raise ValueError(f"gain must be {grad_u.shape[1]}x{n_x}, got {gain.shape}")
    if state_cov.shape[0] != n_x:
        raise ValueError("state_cov dimension does not match grad_x columns")
    return GaussianVec(f_val, congruence(grad_x + grad_u @ gain, state_cov))


def linearized_norm_constraint(u_mean, u_cov, u_max: float) -> GaussianVec:
    """Scalar distribution of ||u||_2 - u_max, linearized at the nominal u.

    The gradient of the norm at u_mean is u_mean / ||u_mean||, so the output
    variance is u_mean^T u_cov u_mean / ||u_mean||^2.
    """
    u_mean = np.atleast_1d(np.asarray(u_mean, dtype=float))
    norm = float(np.linalg.norm(u_mean))
    if norm == 0.0:
        raise ValueError("nominal control has zero norm; gradient undefined")
    u_cov = as_symmetric(u_cov)
    var = float(u_mean @ u_cov @ u_mean) / norm**2
    return GaussianVec([norm - float(u_max)], [[var]])

