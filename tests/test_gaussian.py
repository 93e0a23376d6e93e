"""Gaussian constraint model: construction, propagation, radii, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrisk.gaussian import (
    GaussianVec,
    LinearConstraintModel,
    constraint_distribution,
    linearized_norm_constraint,
    sample,
)
from ccrisk.linalg import NotPositiveDefiniteError
from ccrisk.risk import dth_order_value
from ccrisk.special import psi

U0 = np.array([0.15567, 0.42294, -0.033632])
SIGMA_U0 = np.array(
    [
        [1.49e-6, -6.68e-6, -1.28e-7],
        [-6.68e-6, 1.23e-4, 1.91e-6],
        [-1.28e-7, 1.91e-6, 4.36e-8],
    ]
)


class TestGaussianVec:
    def test_validates_pd_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            GaussianVec([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GaussianVec([0.0, 0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize(
        "mean,cov",
        [
            ([-1.0, -1.0], [[math.nan, 0.0], [0.0, 1.0]]),
            ([-1.0, -1.0], [[1.0, math.inf], [math.inf, 1.0]]),
            ([math.nan, -1.0], np.eye(2)),
            ([-math.inf, -1.0], np.eye(2)),
        ],
    )
    def test_rejects_non_finite(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianVec(mean, cov)

    def test_input_mutation_leaves_it_unchanged(self):
        m = np.array([-1.0, -2.0])
        c = np.array([[1.0, 0.2], [0.2, 1.0]])
        g = GaussianVec(m, c)
        m[0] = 5.0
        c[0, 0] = -7.0
        assert np.array_equal(g.mean, [-1.0, -2.0])
        assert np.array_equal(g.cov, [[1.0, 0.2], [0.2, 1.0]])
        assert np.array_equal(g.radii, [1.0, 2.0])

    @pytest.mark.parametrize("name", ["mean", "cov", "chol", "radii"])
    def test_arrays_read_only(self, example_2d, name):
        arr = getattr(example_2d, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0

    def test_cached_values_are_computed_once(self, example_2d):
        for name in ("radii", "sqrt_lambda_max", "dth_order_risk"):
            assert getattr(example_2d, name) is getattr(example_2d, name)

    def test_json_round_trip(self, example_2d):
        back = GaussianVec.from_json(example_2d.to_json())
        assert np.array_equal(back.mean, example_2d.mean)
        assert np.array_equal(back.cov, example_2d.cov)

    def test_parse_rejects_asymmetric_cov(self):
        payload = json.dumps({"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.2, 1.0]]})
        with pytest.raises(ValueError):
            GaussianVec.from_json(payload)

    def test_parse_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            GaussianVec.from_dict({"mean": [0.0]})


class TestConstraintDistribution:
    def test_zero_gain_identity_gradient(self):
        state_cov = np.array([[2.0, 0.1], [0.1, 1.0]])
        m = LinearConstraintModel(
            f_val=[1.0, -1.0],
            grad_x=np.eye(2),
            grad_u=np.zeros((2, 2)),
            gain=np.zeros((2, 2)),
            state_cov=state_cov,
        )
        g = constraint_distribution(m)
        assert np.array_equal(g.mean, [1.0, -1.0])
        assert np.allclose(g.cov, state_cov)

    def test_pure_feedback_path(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        m = LinearConstraintModel(
            f_val=[0.0, 0.0],
            grad_x=np.zeros((2, 2)),
            grad_u=np.eye(2),
            gain=a,
            state_cov=np.eye(2),
        )
        assert np.allclose(constraint_distribution(m).cov, a @ a.T)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraintModel(
                f_val=[0.0],
                grad_x=np.eye(2),
                grad_u=np.zeros((2, 1)),
                gain=np.zeros((1, 2)),
                state_cov=np.eye(2),
            )


class TestLinearizedNormConstraint:
    def test_benchmark_control_mean(self):
        g = linearized_norm_constraint(U0, SIGMA_U0, 0.5)
        assert g.dim == 1
        assert g.mean[0] == pytest.approx(-0.048070, abs=5e-6)

    def test_benchmark_control_variance(self):
        g = linearized_norm_constraint(U0, SIGMA_U0, 0.5)
        # quadratic form u^T S u / ||u||^2 evaluated directly
        expected = U0 @ SIGMA_U0 @ U0 / (U0 @ U0)
        assert g.cov[0, 0] == pytest.approx(expected, rel=1e-12)
        # the three-significant-figure covariance entries reproduce the
        # published scalar variance 1.01e-4 only to its own rounding level
        assert g.cov[0, 0] == pytest.approx(1.01e-4, abs=3e-6)

    def test_axis_aligned(self):
        g = linearized_norm_constraint([1.0, 0.0], np.eye(2), 2.0)
        assert g.mean[0] == pytest.approx(-1.0)
        assert g.cov[0, 0] == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            linearized_norm_constraint([0.0, 0.0], np.eye(2), 1.0)


class TestSignedMahalanobis:
    """``g.radii``: the signed standardized margins."""

    def test_zero_mean(self):
        g = GaussianVec([0.0, 0.0], np.diag([2.0, 3.0]))
        assert np.array_equal(g.radii, [0.0, 0.0])

    def test_example_radii(self, example_2d):
        r = example_2d.radii
        assert np.allclose(r, [2 / math.sqrt(1.1), 1.0], atol=1e-12)

    def test_sign_convention(self):
        g = GaussianVec([2.0, -3.0], np.diag([4.0, 9.0]))
        assert np.allclose(g.radii, [-1.0, 1.0])

    @settings(max_examples=25)
    @given(st.floats(0.1, 10))
    def test_row_rescaling_invariance(self, c):
        base = LinearConstraintModel(
            f_val=[-1.0, -2.0],
            grad_x=np.array([[1.0, 0.5], [0.0, 1.0]]),
            grad_u=np.zeros((2, 2)),
            gain=np.zeros((2, 2)),
            state_cov=np.eye(2),
        )
        scaled = LinearConstraintModel(
            f_val=[-1.0 * c, -2.0],
            grad_x=np.array([[c, 0.5 * c], [0.0, 1.0]]),
            grad_u=np.zeros((2, 2)),
            gain=np.zeros((2, 2)),
            state_cov=np.eye(2),
        )
        r0 = constraint_distribution(base).radii
        r1 = constraint_distribution(scaled).radii
        assert np.allclose(r0, r1, rtol=1e-12)


class TestSortedRadii:
    """``dth_order_value`` sorts the radii itself, so their order is free."""

    def test_example(self):
        assert dth_order_value([1.9069, 1.0]) == dth_order_value([1.0, 1.9069])

    def test_scalar(self):
        assert dth_order_value([2.5]) == psi(2.5, 1)

    def test_tie_break_by_original_index(self):
        # equal radii give zero-width shells, so how ties are ordered
        # cannot change the value
        assert dth_order_value([2.0, 2.0, 2.0]) == psi(2.0, 3)
        values = {dth_order_value(r) for r in ([3.0, 2.0, 2.0], [2.0, 3.0, 2.0], [2.0, 2.0, 3.0])}
        assert len(values) == 1


class TestSample:
    def test_empty(self, example_2d):
        assert sample(example_2d, 0, 42).shape == (0, 2)

    def test_deterministic(self, example_2d):
        a = sample(example_2d, 1000, 42)
        b = sample(example_2d, 1000, 42)
        assert np.array_equal(a, b)
        c = sample(example_2d, 1000, 43)
        assert not np.array_equal(a, c)

    def test_standard_normal_mean(self):
        g = GaussianVec(np.zeros(3), np.eye(3))
        n = 10**6
        s = sample(g, n, 0)
        assert np.max(np.abs(s.mean(axis=0))) < 4 / math.sqrt(n)

    def test_example_sample_covariance(self, example_2d):
        s = sample(example_2d, 10**6, 1)
        emp = np.cov(s.T)
        assert np.max(np.abs(emp - example_2d.cov)) < 0.01 * np.max(np.abs(example_2d.cov))

    def test_diagonal_cov_uncorrelated(self):
        g = GaussianVec([0.0, 0.0], np.diag([1.0, 4.0]))
        n = 10**5
        s = sample(g, n, 5)
        pearson = np.corrcoef(s.T)[0, 1]
        assert abs(pearson) < 5 / math.sqrt(n)
