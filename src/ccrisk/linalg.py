"""Small dense symmetric-matrix kernels.

Dimensions in this package are tiny (d <= ~30), so everything is dense and
the numerical workhorses are the LAPACK-backed numpy routines. The wrappers
add the validation and error semantics the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "NotPositiveSemidefiniteError",
    "as_symmetric",
    "cholesky_lower",
    "spectral_radius_sqrt",
    "congruence",
    "clip_to_psd",
]

# Pivot below this fraction of the largest diagonal entry is treated as a
# degenerate covariance rather than round-off.
_CHOL_PIVOT_RTOL = 1e-13

_SYM_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot falls below tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has a significantly negative eigenvalue."""


def as_symmetric(S, rtol: float = _SYM_RTOL) -> np.ndarray:
    """Validate symmetry within ``rtol`` (relative to the largest entry) and
    return an exactly symmetrized copy."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    scale = max(np.max(np.abs(S)), 1.0) if S.size else 1.0
    if np.max(np.abs(S - S.T), initial=0.0) > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (S + S.T)


def cholesky_lower(S) -> np.ndarray:
    """Lower-triangular Cholesky factor M with M @ M.T == S."""
    return _cholesky(as_symmetric(S))


def _cholesky(S: np.ndarray, tol: float | None = None) -> np.ndarray:
    """``cholesky_lower`` of an exactly symmetric S, by LAPACK. A pivot
    M[j, j]**2 at or below ``tol`` (default: _CHOL_PIVOT_RTOL times the
    largest diagonal entry) or NaN raises NotPositiveDefiniteError naming j."""
    if tol is None:
        tol = _CHOL_PIVOT_RTOL * max(float(np.max(np.diag(S), initial=0.0)), 0.0)
    try:
        M = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        # numpy drops LAPACK's index: the last pivot, unless a leading block fails first
        _cholesky(S[:-1, :-1], tol)
        raise NotPositiveDefiniteError(f"pivot at index {len(S) - 1} not positive, tolerance {tol:.3e}") from None
    pivots = np.diag(M) ** 2
    low = np.flatnonzero(~(pivots > tol))
    if low.size:
        raise NotPositiveDefiniteError(f"pivot {pivots[low[0]]:.3e} at index {low[0]} below tolerance {tol:.3e}")
    return M


def spectral_radius_sqrt(S) -> float:
    """Positive square root of the largest eigenvalue of a PSD matrix."""
    return _spectral_radius_sqrt(as_symmetric(S))


def _spectral_radius_sqrt(S: np.ndarray) -> float:
    """``spectral_radius_sqrt`` of an exactly symmetric S."""
    w = np.linalg.eigvalsh(S)
    lam_max = float(w[-1])
    if w[0] < -1e-10 * max(abs(lam_max), 1e-300):
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {w[0]:.3e} is significantly negative"
        )
    return float(np.sqrt(max(lam_max, 0.0)))


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


def clip_to_psd(S, floor_rtol: float = 1e-8) -> np.ndarray:
    """Nearest-PSD repair by clipping eigenvalues to a small positive floor.

    Intended for published covariances whose printed precision breaks
    positive semidefiniteness by a sliver; the floor is relative to the
    largest eigenvalue.
    """
    S = as_symmetric(S)
    w, V = np.linalg.eigh(S)
    floor = floor_rtol * max(float(w[-1]), 0.0)
    repaired = (V * np.clip(w, floor, None)) @ V.T
    return 0.5 * (repaired + repaired.T)
