"""Gaussian models of constraint outputs.

A constraint output y is modeled as y ~ N(mean, cov). This module builds
that distribution from linearized constraints with state feedback, computes
the signed standardized margins used by the risk estimators, and draws
reproducible samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import _cholesky, _spectral_radius_sqrt, as_symmetric, congruence

__all__ = [
    "GaussianVec",
    "LinearConstraintModel",
    "constraint_distribution",
    "linearized_norm_constraint",
    "sample",
]


@dataclass(frozen=True)
class GaussianVec:
    """Mean and positive-definite covariance of a constraint output.

    Finiteness and positive definiteness are checked once at construction
    (fail fast, with the error pointing at the construction site); the
    Cholesky factor is kept for sampling. ``mean``, ``cov`` and ``chol`` are
    read-only copies, so the quantities the estimators share (``radii``,
    ``sqrt_lambda_max``, ``dth_order_risk``) are computed once, on first
    use, and cached.
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
        for name, value in (("mean", mean), ("cov", cov), ("chol", _cholesky(cov))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def radii(self) -> np.ndarray:
        """Signed standardized margins r_i = -mean_i / sigma_i (read-only).

        Positive entries mean the nominal constraint i is satisfied; negative
        entries mean it is violated.
        """
        r = -self.mean / np.sqrt(np.diag(self.cov))
        r.flags.writeable = False
        return r

    @cached_property
    def sqrt_lambda_max(self) -> float:
        """Square root of the largest covariance eigenvalue."""
        return _spectral_radius_sqrt(self.cov)

    @cached_property
    def dth_order_risk(self) -> float:
        """d-th-order risk value from the radii; needs mean <= 0."""
        from .risk import dth_order_value  # risk builds on this module

        return dth_order_value(self.radii)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_json(self) -> str:
        return json.dumps({"mean": self.mean.tolist(), "cov": self.cov.tolist()})

    @classmethod
    def from_dict(cls, obj: dict) -> "GaussianVec":
        if not isinstance(obj, dict) or "mean" not in obj or "cov" not in obj:
            raise ValueError('expected an object with "mean" and "cov" keys')
        arrays = []
        for key in ("mean", "cov"):
            try:
                arrays.append(np.asarray(obj[key], dtype=float))
            except TypeError:
                raise ValueError(f'"{key}" must be an array of numbers, got {obj[key]!r}') from None
        return cls(*arrays)

    @classmethod
    def from_json(cls, text: str) -> "GaussianVec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class LinearConstraintModel:
    """Linearized constraint y = f_val + (grad_x + grad_u @ gain) @ dx with
    dx ~ N(0, state_cov)."""

    f_val: np.ndarray
    grad_x: np.ndarray
    grad_u: np.ndarray
    gain: np.ndarray
    state_cov: np.ndarray

    def __post_init__(self) -> None:
        f_val = np.atleast_1d(np.asarray(self.f_val, dtype=float))
        grad_x = np.atleast_2d(np.asarray(self.grad_x, dtype=float))
        grad_u = np.atleast_2d(np.asarray(self.grad_u, dtype=float))
        gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        state_cov = as_symmetric(self.state_cov)
        d, n_x = grad_x.shape
        if f_val.shape[0] != d:
            raise ValueError("f_val length does not match gradient rows")
        if grad_u.shape[0] != d:
            raise ValueError("grad_x and grad_u row counts differ")
        if gain.shape != (grad_u.shape[1], n_x):
            raise ValueError(
                f"gain must be {grad_u.shape[1]}x{n_x}, got {gain.shape}"
            )
        if state_cov.shape[0] != n_x:
            raise ValueError("state_cov dimension does not match grad_x columns")
        for name, val in (
            ("f_val", f_val),
            ("grad_x", grad_x),
            ("grad_u", grad_u),
            ("gain", gain),
            ("state_cov", state_cov),
        ):
            object.__setattr__(self, name, val)


def constraint_distribution(m: LinearConstraintModel) -> GaussianVec:
    """Distribution of the linearized constraint output under state feedback."""
    combined = m.grad_x + m.grad_u @ m.gain
    return GaussianVec(m.f_val, congruence(combined, m.state_cov))


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


def sample(g: GaussianVec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` samples of g, deterministically for a given seed.

    Uses the counter-based Philox generator so that identical
    ``(g, n, seed)`` gives bitwise-identical output on any platform and so
    parallel callers can partition the seed space (convention:
    ``seed ^ task_index``).
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    z = rng.standard_normal((int(n), g.dim))
    return g.mean + z @ g.chol.T
