"""Scalar special functions: values against an arbitrary-precision oracle,
closed forms, and round-trip / symmetry properties."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrisk.gaussian import GaussianVec
from ccrisk.risk import risk_exact_1d
from ccrisk.special import (
    psi,
    psi_array,
    psi_inv,
    sector_fraction,
    sector_fraction_array,
)
from ccrisk.transcription import bound_linear_1d

mpmath.mp.dps = 40


def oracle_normal_cdf(x: float) -> float:
    return float(mpmath.ncdf(x))


# The standard normal CDF and quantile, as the package evaluates them (by
# scipy's ndtr and ndtri): the exact risk of a unit-variance scalar
# constraint, and its exact backoff.
def phi(x: float) -> float:
    return risk_exact_1d(GaussianVec([x], [[1.0]])).value


def phi_inv(p: float) -> float:
    return bound_linear_1d(1.0 - p, 1.0)


def oracle_chi2_cdf(x: float, d: int) -> float:
    # regularized lower incomplete gamma at (d/2, x/2)
    return float(mpmath.gammainc(d / 2, 0, x / 2, regularized=True))


# psi is the chi-squared tail in the radius r = sqrt(x), and psi_inv its
# inverse, so the chi-squared CDF and quantile are checked through them.
def chi2_cdf(x: float, d: int) -> float:
    return 1.0 - psi(math.sqrt(x), d)


def chi2_quantile(p: float, d: int) -> float:
    return psi_inv(1.0 - p, d) ** 2


# sector_fraction(c, d) is the regularized incomplete beta I_x((d-1)/2, 1/2)
# at x = 1 - c^2. Each check takes x at the c actually passed, because
# forming c from x and back moves x by round-off.
def inc_beta_at(c: float, d: int) -> tuple[float, float]:
    """(x, I_x((d-1)/2, 1/2)) at c."""
    return 1.0 - c * c, sector_fraction(c, d)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert phi(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_975_quantile_point(self):
        assert phi(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_deep_tail_against_oracle(self):
        assert phi(-4.7832) == pytest.approx(oracle_normal_cdf(-4.7832), abs=5e-8)
        assert phi(-4.7832) == pytest.approx(8.6e-7, abs=5e-8)

    @given(st.floats(-8, 8))
    def test_complement_identity(self, x):
        assert phi(x) + phi(-x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-6, 6))
    def test_matches_oracle(self, x):
        assert phi(x) == pytest.approx(oracle_normal_cdf(x), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            phi(math.nan)


class TestStdNormalQuantile:
    def test_median(self):
        assert phi_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_two_sided_975(self):
        assert phi_inv(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_one_sigma(self):
        assert phi_inv(0.841345) == pytest.approx(1.0, abs=1e-5)

    @given(st.floats(1e-8, 1 - 1e-8))
    def test_round_trip(self, p):
        assert phi(phi_inv(p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary(self, p):
        with pytest.raises(ValueError):
            phi_inv(p)


class TestChi2Cdf:
    @pytest.mark.parametrize("d", [1, 2, 5, 30])
    def test_zero(self, d):
        assert chi2_cdf(0.0, d) == 0.0

    def test_two_dof_closed_form_median(self):
        assert chi2_cdf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)

    def test_one_dof_via_normal(self):
        assert chi2_cdf(1.0, 1) == pytest.approx(0.682689, abs=1e-6)

    @given(st.floats(0, 60))
    def test_two_dof_closed_form(self, x):
        assert chi2_cdf(x, 2) == pytest.approx(1 - math.exp(-x / 2), abs=1e-12)

    @given(st.floats(0.01, 80), st.integers(1, 30))
    def test_matches_oracle(self, x, d):
        # the only general-d oracle for the incomplete-gamma path
        assert chi2_cdf(x, d) == pytest.approx(oracle_chi2_cdf(x, d), abs=1e-12)


class TestChi2Quantile:
    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_zero_probability(self, d):
        assert chi2_quantile(0.0, d) == 0.0

    def test_two_dof_median(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(1.386294, abs=1e-6)

    def test_one_dof(self):
        assert chi2_quantile(0.682689, 1) == pytest.approx(1.0, abs=1e-5)

    @given(st.floats(1e-8, 1 - 1e-8), st.integers(1, 30))
    def test_round_trip(self, p, d):
        assert chi2_cdf(chi2_quantile(p, d), d) == pytest.approx(p, abs=1e-9)

    def test_rejects_one(self):
        # p = 1 is psi_inv at beta = 0, an infinite radius
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 2)


class TestPsi:
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_at_zero(self, d):
        assert psi(0.0, d) == 1.0

    def test_negative_radius_convention(self):
        assert psi(-3.0, 5) == 1.0

    def test_two_dof_closed_form(self):
        assert psi(2.0, 2) == pytest.approx(math.exp(-2.0), abs=1e-9)

    @given(st.floats(0, 8), st.integers(1, 20))
    def test_one_dof_identity_and_range(self, r, d):
        assert 0.0 <= psi(r, d) <= 1.0
        assert psi(r, 1) == pytest.approx(math.erfc(r / math.sqrt(2.0)), abs=1e-10)

    def test_nonincreasing(self):
        values = [psi(r, 4) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    @given(st.lists(st.floats(0, 40), min_size=1, max_size=30), st.integers(1, 30))
    def test_array_form_bitwise_equal(self, rs, d):
        assert psi_array(np.array(rs), d).tolist() == [psi(r, d) for r in rs]


class TestPsiInv:
    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_beta_one(self, d):
        assert psi_inv(1.0, d) == 0.0

    def test_two_dof_closed_form(self):
        assert psi_inv(math.exp(-2.0), 2) == pytest.approx(2.0, abs=1e-8)

    def test_six_dof_tail_against_oracle(self):
        # chi-squared(6) quantile at 0.999 is 22.4577..., so the radius is
        # its square root, ~4.7390
        q = mpmath.findroot(lambda x: mpmath.gammainc(3, 0, x / 2, regularized=True) - mpmath.mpf("0.999"), 22)
        assert float(q) == pytest.approx(22.4577, abs=1e-3)
        assert psi_inv(1e-3, 6) == pytest.approx(float(mpmath.sqrt(q)), abs=1e-9)

    @given(st.floats(1e-9, 1 - 1e-9), st.integers(1, 25))
    def test_round_trip(self, beta, d):
        assert psi(psi_inv(beta, d), d) == pytest.approx(beta, rel=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_inv(0.0, 3)

    def test_memo_keeps_the_dof_type_check(self):
        # 6.0 == 6 and True == 1 hash alike; the memo must not serve them
        # the results cached for 6 and 1
        psi_inv(1e-3, 6)
        psi_inv(0.5, 1)
        with pytest.raises(ValueError, match="must be an int"):
            psi_inv(1e-3, 6.0)
        with pytest.raises(ValueError, match="must be an int"):
            psi_inv(0.5, True)


class TestRegIncBeta:
    def test_endpoints(self):
        assert inc_beta_at(1.0, 4) == (0.0, 0.0)
        assert inc_beta_at(0.0, 4) == (1.0, 1.0)

    def test_arcsine_midpoint(self):
        assert sector_fraction(math.sqrt(0.5), 2) == pytest.approx(0.5, abs=1e-9)

    @given(st.floats(0, 1))
    def test_arcsine_closed_form(self, c):
        # x is taken in 40 digits: below c of about 1e-7 a double x near 1
        # moves the arcsine by more than the tolerance
        value = sector_fraction(c, 2)
        x = 1 - mpmath.mpf(c) ** 2
        assert value == pytest.approx(float(2 / mpmath.pi * mpmath.asin(mpmath.sqrt(x))), abs=1e-9)

    # I_x(a, b) = 1 - I_{1-x}(b, a), at a = b = 1/2: complementary
    # half-angles; interior x only, as near the endpoints forming 1 - x
    # perturbs the argument itself by more than the tolerance
    @given(st.floats(1e-6, 1 - 1e-6))
    def test_symmetry(self, x):
        x1, value = inc_beta_at(math.sqrt(1.0 - x), 2)
        x2, mirror = inc_beta_at(math.sqrt(x1), 2)
        assert x1 + x2 == pytest.approx(1.0, abs=1e-15)
        assert value == pytest.approx(1 - mirror, abs=1e-10)

    def test_monotone_in_x(self):
        values = [inc_beta_at(math.sqrt(1.0 - x), 5)[1] for x in (0.0, 0.2, 0.5, 0.8, 1.0)]
        assert values == sorted(values)


class TestSectorFraction:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_endpoints(self, d):
        assert sector_fraction(1.0, d) == 0.0
        assert sector_fraction(0.0, d) == 1.0

    def test_planar_quarter(self):
        # a planar sector of half-angle pi/4 covers half of all directions
        # counted by the lemma's 1/2 * fraction convention
        assert sector_fraction(math.cos(math.pi / 4), 2) == pytest.approx(0.5, abs=1e-9)

    @given(st.floats(0, math.pi / 2))
    def test_planar_closed_form(self, theta):
        # the closed form is taken at the c actually passed: below about
        # 1.5e-8, cos(theta) rounds to 1 and the sector is empty
        c = math.cos(theta)
        assert sector_fraction(c, 2) == pytest.approx(2 * math.acos(c) / math.pi, abs=1e-9)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.integers(2, 30))
    def test_array_form_bitwise_equal(self, cs, d):
        assert sector_fraction_array(np.array(cs), d).tolist() == [sector_fraction(c, d) for c in cs]

    @staticmethod
    def mp_sector_fraction(c: float, d: int) -> float:
        """I_x((d-1)/2, 1/2) at x = 1 - c^2 formed from the exact c in 40 digits."""
        x = 1 - mpmath.mpf(c) ** 2
        return float(mpmath.betainc(mpmath.mpf(d - 1) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))

    @pytest.mark.parametrize("d", [2, 3, 6, 25])
    def test_relative_accuracy_at_both_ends(self, d):
        # narrow sectors, c -> 1, where 1 - c^2 in double cancels, and wide
        # ones, c -> 0, where no double near 1 holds it; c = cos(pi / 2) in
        # double is 6.1e-17
        narrow = [1.0 - 10.0**-k for k in range(1, 13)]
        wide = [10.0**-k for k in range(1, 17)] + [math.cos(math.pi / 2)]
        for c in narrow + wide:
            assert sector_fraction(c, d) == pytest.approx(self.mp_sector_fraction(c, d), rel=1e-13, abs=0), c

    def test_nonincreasing_in_c(self):
        values = [sector_fraction(c, 5) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            sector_fraction(0.5, 1)
