"""Dense symmetric kernels: Cholesky, eigenvalues, congruence, PSD repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccrisk.gaussian import GaussianVec
from ccrisk.linalg import (
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    _cholesky,
    as_symmetric,
    clip_to_psd,
    congruence,
    spectral_radius_sqrt,
)

EXAMPLE_COV = np.array([[1.1, -0.8], [-0.8, 1.0]])

square = lambda n: arrays(float, (n, n), elements=st.floats(-3, 3))


def pivot_loop_cholesky(S):
    """Independent oracle: the classic pivot recursion in plain Python,
    column by column, with no LAPACK call."""
    n = S.shape[0]
    M = np.zeros_like(S)
    for j in range(n):
        pivot = S[j, j] - M[j, :j] @ M[j, :j]
        assert pivot > 0.0
        M[j, j] = np.sqrt(pivot)
        M[j + 1 :, j] = (S[j + 1 :, j] - M[j + 1 :, :j] @ M[j, :j]) / M[j, j]
    return M


@st.composite
def spd_matrices(draw, min_dim=1):
    """SPD matrices A A^T / d + I with d <= 30; the condition number stays
    below about 300, so two correct factors agree to ~1e-14."""
    d = draw(st.integers(min_dim, 30))
    a = draw(arrays(float, (d, d), elements=st.floats(-3, 3)))
    return as_symmetric(a @ a.T / d + np.eye(d))


class TestCholesky:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_identity(self, d):
        assert np.array_equal(_cholesky(as_symmetric(np.eye(d))), np.eye(d))

    def test_hand_example(self):
        L = _cholesky(as_symmetric(np.array([[4.0, 2.0], [2.0, 5.0]])))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_example_cov_reproduces(self):
        L = _cholesky(as_symmetric(EXAMPLE_COV))
        assert np.all(np.tril(L) == L)
        assert np.all(np.diag(L) > 0)
        assert np.max(np.abs(L @ L.T - EXAMPLE_COV)) < 1e-12 * np.linalg.norm(EXAMPLE_COV)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            _cholesky(as_symmetric(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            _cholesky(as_symmetric(np.ones((3, 3))))

    def test_full_rank_criterion(self):
        # cholesky(A A^T) succeeds iff A has full row rank
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        s = congruence(a, np.eye(4))
        L = _cholesky(as_symmetric(s))
        assert np.allclose(L @ L.T, s, atol=1e-10 * np.linalg.norm(s))
        deficient = a.copy()
        deficient[3] = deficient[0]  # duplicate row: rank 3
        with pytest.raises(NotPositiveDefiniteError):
            _cholesky(as_symmetric(congruence(deficient, np.eye(4))))

    @settings(max_examples=60, deadline=None)
    @given(spd_matrices())
    def test_matches_pivot_loop(self, s):
        L = _cholesky(as_symmetric(s))
        assert np.array_equal(L, np.tril(L))
        assert np.all(np.diag(L) > 0.0)
        oracle = pivot_loop_cholesky(s)
        assert np.max(np.abs(L - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize(
        "s,index",
        [
            # indefinite: LAPACK stops at the second pivot, 1 - 4 = -3
            (np.array([[1.0, 2.0], [2.0, 1.0]]), 1),
            # rank 2 of 4: the third pivot is exactly 0
            (np.array([[1.0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]), 2),
            # near-singular: the second pivot is 1e-15, positive but below 1e-13
            (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), 1),
            # a nonpositive diagonal entry fails at the first pivot
            (np.array([[-1.0, 0.0], [0.0, 1.0]]), 0),
            (np.array([[0.0]]), 0),
            # NaN passes the symmetry check; the pivot it reaches is NaN,
            # which is never above tolerance
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1),
        ],
    )
    def test_failure_names_pivot_and_tolerance(self, s, index):
        with pytest.raises(ValueError) as info:  # LinAlgError is a ValueError too
            _cholesky(as_symmetric(s))
        assert type(info.value) is NotPositiveDefiniteError
        assert f"at index {index}" in str(info.value) and "tolerance" in str(info.value)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({0: -1.0}, "pivot at index 0 not positive"),
            ({1: -1.0}, "pivot at index 1 not positive"),
            ({700: -1.0}, "pivot at index 700 not positive"),
            ({1199: -1.0}, "pivot at index 1199 not positive"),
            # a pivot below tolerance ahead of the one LAPACK stops at
            ({300: 1e-15, 700: -1.0}, "pivot 1.000e-15 at index 300 below tolerance"),
        ],
    )
    def test_failure_index_at_large_dimension(self, bad, message):
        # the leading blocks are bisected, so d = 1200 takes about 11
        # factorizations and no recursion
        s = np.eye(1200)
        for j, value in bad.items():
            s[j, j] = value
        with pytest.raises(NotPositiveDefiniteError, match=message):
            _cholesky(s)

    @settings(max_examples=40, deadline=None)
    @given(spd_matrices(min_dim=2), st.integers(0, 28), st.sampled_from([0.0, -1e-3, 1e-16]))
    def test_degenerate_never_raises_linalg_error(self, s, k, shift):
        # replace row and column k by a multiple of row 0 (rank deficient),
        # nudged by `shift` on the diagonal: singular, indefinite or
        # near-singular, the error is always NotPositiveDefiniteError
        k = 1 + k % (s.shape[0] - 1)
        s = s.copy()
        s[k, :] = s[:, k] = 2.0 * s[0, :]
        s[k, k] = 4.0 * s[0, 0] + shift
        with pytest.raises(ValueError) as info:
            _cholesky(as_symmetric(s))
        assert type(info.value) is NotPositiveDefiniteError


class TestSpectralRadiusSqrt:
    def test_identity(self):
        assert spectral_radius_sqrt(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius_sqrt(np.diag([9.0, 4.0, 1.0])) == pytest.approx(3.0)

    def test_3x3_against_characteristic_polynomial(self):
        s = np.array(
            [
                [1.49e-6, -6.68e-6, -1.28e-7],
                [-6.68e-6, 1.23e-4, 1.91e-6],
                [-1.28e-7, 1.91e-6, 4.36e-8],
            ]
        )
        # independent oracle: largest root of det(S - x I) = 0
        coeffs = np.poly(s)
        lam_max = max(r.real for r in np.roots(coeffs))
        assert spectral_radius_sqrt(s) == pytest.approx(np.sqrt(lam_max), rel=1e-10)
        assert spectral_radius_sqrt(s) == pytest.approx(1.111e-2, abs=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(spd_matrices())
    def test_gaussian_vec_reads_the_same_value(self, s):
        # GaussianVec skips the PSD check its pivot test has made redundant
        assert GaussianVec(np.full(s.shape[0], -1.0), s).sqrt_lambda_max == spectral_radius_sqrt(s)

    def test_rejects_negative_definite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            spectral_radius_sqrt(-np.eye(2))

    @settings(max_examples=30)
    @given(square(3))
    def test_dominates_diagonal(self, a):
        s = congruence(a, np.eye(3))  # PSD by construction
        assert spectral_radius_sqrt(s) >= np.sqrt(np.max(np.diag(s))) - 1e-12


class TestSymEigenvalues:
    """The symmetric eigenvalue solve behind ``spectral_radius_sqrt``."""

    def test_diagonal_sorted(self):
        assert spectral_radius_sqrt(np.diag([3.0, 1.0, 2.0])) == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_2x2_closed_form(self):
        disc = np.sqrt(0.0025 + 0.64)
        assert spectral_radius_sqrt(EXAMPLE_COV) ** 2 == pytest.approx(1.05 + disc, abs=1e-9)

    def test_identity(self):
        assert spectral_radius_sqrt(np.eye(5)) == pytest.approx(1.0, rel=1e-15)

    @settings(max_examples=30)
    @given(square(5))
    def test_trace_and_determinant(self, a):
        # for PSD S the largest eigenvalue lies in [trace/d, trace] and its
        # d-th power bounds the determinant
        s = congruence(a, np.eye(5))
        lam = spectral_radius_sqrt(s) ** 2
        trace = np.trace(s)
        assert trace / 5 * (1 - 1e-10) - 1e-10 <= lam <= trace * (1 + 1e-10) + 1e-10
        assert np.linalg.det(s) <= lam**5 * (1 + 1e-8) + 1e-8

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        s = congruence(a, np.eye(6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = congruence(q, s)
        assert spectral_radius_sqrt(s) == pytest.approx(spectral_radius_sqrt(rotated), abs=1e-8)


class TestCongruence:
    def test_identity_transform(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(congruence(np.eye(2), s), s)

    def test_row_vector_reduces_to_quadratic_form(self):
        u = np.array([0.15567, 0.42294, -0.033632])
        s = np.diag([1.0, 2.0, 3.0])
        a = (u / np.linalg.norm(u)).reshape(1, 3)
        expected = u @ s @ u / (u @ u)
        assert congruence(a, s)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_hand_example(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(congruence(a, np.eye(2)), [[2.0, 1.0], [1.0, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            congruence(np.eye(2), np.eye(3))

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 6))
        s = congruence(a, np.eye(6))
        assert np.array_equal(s, s.T)


class TestAsSymmetric:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_symmetric(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetrizes_roundoff(self):
        s = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        out = as_symmetric(s)
        assert np.array_equal(out, out.T)


class TestClipToPsd:
    def test_leaves_pd_nearly_unchanged(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(clip_to_psd(s), s, atol=1e-7)

    def test_repairs_sliver_negative_eigenvalue(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        s = as_symmetric(q @ np.diag([1.0, 0.5, -1e-12]) @ q.T)
        repaired = clip_to_psd(s)
        assert np.min(np.linalg.eigvalsh(repaired)) > 0
        _cholesky(as_symmetric(repaired))  # must succeed
        assert np.max(np.abs(repaired - s)) < 1e-7
