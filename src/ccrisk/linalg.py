"""Small dense symmetric-matrix kernels.

Dimensions in this package are tiny (d <= ~30), so everything is dense and
the numerical workhorses are the LAPACK-backed numpy routines. The wrappers
add the validation and error semantics the rest of the package relies on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "NotPositiveSemidefiniteError",
    "as_symmetric",
    "spectral_radius_sqrt",
    "congruence",
    "clip_to_psd",
]

# Pivot below this fraction of the largest diagonal entry is treated as a
# degenerate covariance rather than round-off.
_CHOL_PIVOT_RTOL = 1e-13

# Asymmetry allowed, relative to the largest entry.
_SYM_RTOL = 1e-12

# clip_to_psd's eigenvalue floor, relative to the largest eigenvalue.
_PSD_FLOOR_RTOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot falls below tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has a significantly negative eigenvalue."""


def as_symmetric(S) -> np.ndarray:
    """Validate symmetry within ``_SYM_RTOL`` (relative to the largest
    entry) and return an exactly symmetrized copy."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if np.abs(S - S.T).max(initial=0.0) > _SYM_RTOL * np.abs(S).max(initial=0.0):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (S + S.T)


def _cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular factor M with M @ M.T == S of an exactly symmetric S
    (``as_symmetric``'s output), by LAPACK. A pivot M[j, j]**2 at or below
    _CHOL_PIVOT_RTOL times the largest diagonal entry, or NaN, raises
    NotPositiveDefiniteError naming j."""
    tol = _CHOL_PIVOT_RTOL * max(float(S.diagonal().max(initial=0.0)), 0.0)
    try:
        M = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        # numpy drops LAPACK's index: bisect for the largest leading block
        # that factors, whose size is the failing pivot's index
        M, hi = np.zeros((0, 0)), len(S)
        while hi - len(M) > 1:
            mid = (len(M) + hi) // 2
            try:
                M = np.linalg.cholesky(S[:mid, :mid])
            except np.linalg.LinAlgError:
                hi = mid
    pivots = M.diagonal() ** 2
    # initial: the leading block that factors may be empty
    if not pivots.min(initial=np.inf) > tol:
        j = np.flatnonzero(~(pivots > tol))[0]
        raise NotPositiveDefiniteError(f"pivot {pivots[j]:.3e} at index {j} below tolerance {tol:.3e}")
    if len(M) < len(S):
        raise NotPositiveDefiniteError(f"pivot at index {len(M)} not positive, tolerance {tol:.3e}")
    return M


def spectral_radius_sqrt(S) -> float:
    """Positive square root of the largest eigenvalue of a PSD matrix."""
    S = as_symmetric(S)
    w = np.linalg.eigvalsh(S)
    lam_max = float(w[-1])
    if w[0] < -1e-10 * max(abs(lam_max), 1e-300):
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {w[0]:.3e} is significantly negative"
        )
    return _sqrt_lambda_max(S, lam_max)


def _sqrt_lambda_max(S: np.ndarray, lam_max: float) -> float:
    """sqrt(lam_max), the largest eigenvalue of the symmetric S, floored at
    sqrt(max diag S) as in exact arithmetic: eigvalsh can round lam_max an
    ulp below the diagonal."""
    return math.sqrt(max(lam_max, float(S.diagonal().max()), 0.0))


def congruence(A, S) -> np.ndarray:
    """Congruence transform A @ S @ A.T, symmetrized in storage."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    S = as_symmetric(S)
    if A.shape[1] != S.shape[0]:
        raise ValueError(
            f"shape mismatch: A is {A.shape}, S is {S.shape}"
        )
    out = A @ S @ A.T
    return 0.5 * (out + out.T)


def clip_to_psd(S) -> np.ndarray:
    """Nearest-PSD repair by clipping eigenvalues to a small positive floor.

    Intended for published covariances whose printed precision breaks
    positive semidefiniteness by a sliver; the floor is ``_PSD_FLOOR_RTOL``
    of the largest eigenvalue.
    """
    S = as_symmetric(S)
    w, V = np.linalg.eigh(S)
    floor = _PSD_FLOOR_RTOL * max(float(w[-1]), 0.0)
    repaired = (V * np.clip(w, floor, None)) @ V.T
    return 0.5 * (repaired + repaired.T)
