"""Risk estimators against closed forms and the Monte-Carlo oracles."""

import json
import math
import multiprocessing
import os
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammainccinv
from scipy.stats import beta as beta_law

from ccrisk import risk, special
from ccrisk.cli import _dump_json
from ccrisk.gaussian import GaussianVec
from ccrisk.risk import (
    REF_TOL,
    aloe_risks,
    dth_order_value,
    risk_dth_order,
    risk_exact_1d,
    risk_first_order,
    risk_nakka_chung,
    risk_norm_spectral,
    risk_spectral,
)
from ccrisk.special import psi, sector_fraction
from ccrisk.transcription import transcribe_first_order, transcribe_spectral_radius

import oracles
from oracles import mc_risk, mc_sector_probability, mp_equicorrelated_risk, mp_independent_risk, wilson_interval

mpmath.mp.dps = 40

U0 = np.array([0.15567, 0.42294, -0.033632])
SIGMA_U0 = np.array(
    [
        [1.49e-6, -6.68e-6, -1.28e-7],
        [-6.68e-6, 1.23e-4, 1.91e-6],
        [-1.28e-7, 1.91e-6, 4.36e-8],
    ]
)


def scalar(mean, var):
    return GaussianVec([mean], [[var]])


def mp_shell_sum(radii):
    """The d-th-order shell sum psi(r_d) + sum_i width_i * min(1, cut_i/2),
    shell by shell, in 40-digit arithmetic."""
    d = len(radii)
    r = sorted(mpmath.mpf(float(x)) for x in radii)

    def chi_tail(x):
        return mpmath.gammainc(mpmath.mpf(d) / 2, x * x / 2, mpmath.inf, regularized=True)

    def fraction(c):
        return mpmath.betainc(mpmath.mpf(d - 1) / 2, mpmath.mpf(1) / 2, 0, 1 - c * c, regularized=True)

    value, inner = chi_tail(r[-1]), mpmath.mpf(0)
    for i, ri in enumerate(r):
        if ri > 0:
            cut = mpmath.fsum(fraction(rj / ri) for rj in r[:i])
            value += (chi_tail(inner) - chi_tail(ri)) * min(mpmath.mpf(1), cut / 2)
        inner = ri
    return value


def reference(g, n, seed, tol=REF_TOL):
    """The ALOE reference of one distribution: a batch of one."""
    return aloe_risks([g], n, [seed], tol)[0]


class TestExact1d:
    def test_mean_zero(self):
        assert risk_exact_1d(scalar(0.0, 1.0)).value == pytest.approx(0.5)

    def test_benchmark_scalar_constraint(self):
        est = risk_exact_1d(scalar(-0.048070, 1.01e-4))
        assert est.value == pytest.approx(float(mpmath.ncdf(-4.7832)), rel=1e-3)
        assert est.value == pytest.approx(8.6e-7, abs=5e-8)

    def test_one_sigma(self):
        assert risk_exact_1d(scalar(-1.0, 1.0)).value == pytest.approx(0.158655, abs=1e-6)

    def test_rejects_nonscalar(self):
        with pytest.raises(ValueError):
            risk_exact_1d(GaussianVec([0.0, 0.0], np.eye(2)))

    @pytest.mark.parametrize("k", [8.0, 8.25, 8.5, 8.75, 9.0])
    def test_deep_tail_against_oracle(self, k):
        # 1 - Phi(k) cancels to 0 at 9 sigma; Phi(-k) keeps full precision
        est = risk_exact_1d(scalar(-2.0 * k, 4.0))
        assert est.value == pytest.approx(float(mpmath.ncdf(-k)), rel=1e-13, abs=0)


class TestNakkaChung:
    def test_benchmark_value(self):
        est = risk_nakka_chung(scalar(-0.048070, 1.01e-4))
        assert est.value == pytest.approx(1.01e-4 / (1.01e-4 + 0.048070**2), rel=1e-12)
        assert est.value == pytest.approx(0.0419, abs=2e-4)

    def test_zero_mean(self):
        assert risk_nakka_chung(scalar(0.0, 2.0)).value == 1.0

    def test_one_sigma(self):
        assert risk_nakka_chung(scalar(-2.0, 4.0)).value == pytest.approx(0.5)

    def test_positive_mean_undefined(self):
        est = risk_nakka_chung(scalar(0.1, 1.0))
        assert not est.defined and est.value is None


class TestNormSpectral:
    def test_benchmark_value(self):
        est = risk_norm_spectral(U0, SIGMA_U0, 0.5)
        assert est.defined
        assert est.value == pytest.approx(0.035, abs=1e-3)

    def test_low_dim_closed_form(self):
        est = risk_norm_spectral([1.0], [[1.0]], 2.0)  # margin -1, rho 1
        assert est.value == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_high_dim_existence_condition(self):
        # margin/rho = -1 but sqrt(5) > 1: no real risk level exists
        est = risk_norm_spectral([2.0, 0, 0, 0, 0], np.eye(5), 3.0)
        assert not est.defined

    def test_violated_nominal_rejected(self):
        with pytest.raises(ValueError):
            risk_norm_spectral([3.0], [[1.0]], 2.0)

    @pytest.mark.parametrize(
        "u_mean,u_cov,u_max",
        [
            ([1.0, 0.2], [[math.nan, 0.0], [0.0, 1.0]], 2.0),
            ([math.nan, 0.2], np.eye(2), 2.0),
            ([1.0, 0.2], np.eye(2), math.inf),
        ],
    )
    def test_rejects_non_finite(self, u_mean, u_cov, u_max):
        with pytest.raises(ValueError, match="finite"):
            risk_norm_spectral(u_mean, u_cov, u_max)


@st.composite
def scaled_gaussians(draw):
    """Mean <= 0 Gaussians at d <= 13 whose covariance is diagonal (often
    isotropic), near-diagonal (the identity plus a symmetric perturbation
    of 1e-16 to 1e-7) or dense, scaled by 1e-300 to 1e300."""
    d = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(["diagonal", "near-diagonal", "dense"]))
    if kind == "diagonal":
        base = np.diag(draw(arrays(float, d, elements=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 2.0))))
    elif kind == "near-diagonal":
        a = draw(arrays(float, (d, d), elements=st.floats(-1, 1)))
        base = np.eye(d) + (a + a.T) * 10.0 ** draw(st.integers(-16, -7))
    else:
        a = draw(arrays(float, (d, d), elements=st.floats(-3, 3)))
        base = a @ a.T / d + np.eye(d)
    cov = base * 10.0 ** draw(st.integers(-300, 300))
    radii = draw(arrays(float, d, elements=st.floats(0, 8)))
    return GaussianVec(-radii * np.sqrt(cov.diagonal()), cov)


class TestSpectral:
    def test_not_below_first_order_where_eigvalsh_rounds_low(self):
        # eigvalsh puts the largest eigenvalue of diag(1e-300) an ulp below
        # the diagonal; psi(10, 3) = 1.55e-21 is the first-order risk
        g = GaussianVec([-1e-140, -1e-140, -1e-149], np.diag([1e-300] * 3))
        assert g.sqrt_lambda_max >= g.sigma.max()
        assert risk_spectral(g).value >= risk_first_order(g).value == pytest.approx(1.5541594313896e-21, rel=1e-12)

    def test_not_below_first_order_where_psi_rounds_non_monotonically(self):
        # the spectral margin 2 / sqrt(1 + 4e-15) lies a few ulps below
        # min r = 2, but SciPy's gammaincc, good to about 3e-15, reads lower
        # there than at 2
        g = GaussianVec([-2.0] * 3, np.eye(3) + 2e-15 * (1.0 - np.eye(3)))
        assert risk_spectral(g).value >= risk_first_order(g).value

    @settings(max_examples=300, deadline=None)
    @given(scaled_gaussians())
    def test_ordering_exact_at_every_scale(self, g):
        assert g.sqrt_lambda_max >= g.sigma.max()
        assert risk_spectral(g).value >= risk_first_order(g).value >= risk_dth_order(g).value
        spectral, first = (t(g, 1e-3).margins for t in (transcribe_spectral_radius, transcribe_first_order))
        assert (spectral >= first).all()

    def test_zero_mean(self):
        assert risk_spectral(GaussianVec([0.0, 0.0], np.eye(2))).value == 1.0

    def test_example_closed_form(self, example_2d):
        lam_max = 1.05 + math.sqrt(0.6425)
        expected = math.exp(-0.5 / lam_max)
        assert risk_spectral(example_2d).value == pytest.approx(expected, rel=1e-10)
        assert risk_spectral(example_2d).value == pytest.approx(0.7632, abs=2e-4)

    def test_scalar(self):
        assert risk_spectral(scalar(-2.0, 1.0)).value == pytest.approx(psi(2.0, 1), rel=1e-12)

    def test_positive_mean_undefined(self):
        assert not risk_spectral(GaussianVec([0.1, -1.0], np.eye(2))).defined


class TestFirstOrder:
    def test_benchmark_scalar(self):
        est = risk_first_order(scalar(-0.048070, 1.01e-4))
        assert est.value == pytest.approx(psi(4.7832, 1), rel=1e-3)
        assert est.value == pytest.approx(1.7e-6, abs=1e-7)

    def test_example(self, example_2d):
        assert risk_first_order(example_2d).value == pytest.approx(math.exp(-0.5), rel=1e-10)

    def test_zero_mean(self):
        assert risk_first_order(GaussianVec([0.0, 0.0, 0.0], np.eye(3))).value == 1.0


class TestDthOrder:
    def test_d1_equals_first_order(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = scalar(-float(rng.uniform(0, 4)), float(rng.uniform(0.1, 3)))
            assert risk_dth_order(g).value == risk_first_order(g).value

    @pytest.mark.parametrize("d,a", [(2, 1.0), (3, 2.0), (6, 0.5)])
    def test_equal_radii_collapse(self, d, a):
        g = GaussianVec(-a * np.ones(d), np.eye(d))
        assert risk_dth_order(g).value == pytest.approx(psi(a, d), rel=1e-12)

    def test_example_bracketed_by_mc(self, example_2d):
        value = risk_dth_order(example_2d).value
        first = risk_first_order(example_2d).value
        mc = mc_risk(example_2d, 10**7, 3)
        assert mc.estimate - 5 * mc.ci_halfwidth <= value <= first

    def test_zero_radius_convention(self):
        # one active constraint (zero margin): its shell has zero width and
        # the other contributes a half-plane cut. Closed form at d = 2:
        # 1 - (psi(0) - psi(2)) * (1 - 1/2) = 1/2 + exp(-2)/2
        g = GaussianVec([0.0, -2.0], np.eye(2))
        expected = 0.5 + 0.5 * math.exp(-2.0)
        assert risk_dth_order(g).value == pytest.approx(expected, rel=1e-12)
        assert math.isfinite(dth_order_value([0.0, 0.0, 1.5]))

    def test_bracket_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            radii = rng.uniform(0, 5, size=d)
            value = dth_order_value(radii)
            r_sorted = np.sort(radii)
            assert psi(r_sorted[-1], d) <= value <= psi(r_sorted[0], d)

    def test_chain_ordering_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.05 * np.eye(d)
            mean = -rng.uniform(0, 3, size=d) * np.sqrt(np.diag(cov))
            g = GaussianVec(mean, cov)
            b_d = risk_dth_order(g).value
            b_1 = risk_first_order(g).value
            b_rho = risk_spectral(g).value
            assert b_d <= b_1 <= b_rho

    def test_matches_shell_sum_oracle(self):
        rng = np.random.default_rng(11)
        for d in (2, 2, 2, 3, 6, 6, 12):
            for _ in range(4):
                radii = rng.uniform(1.0, 4.5, size=d)
                assert dth_order_value(radii) == pytest.approx(float(mp_shell_sum(radii)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("level", [6, 7, 8, 9, 10, 11, 12])
    def test_deep_tail_upper_bound(self, d, level):
        # d = 2 at level 9 has radii (9, 10) and true risk 1.13e-19; written
        # as 1 - (uncut mass), the sum cancels there to 1.9e-22
        g = GaussianVec(-(level + np.linspace(0.0, 1.0, d)), np.eye(d))
        value = risk_dth_order(g).value
        assert value == pytest.approx(float(mp_shell_sum(-g.mean)), rel=1e-12, abs=0)
        assert value >= float(mp_independent_risk(-g.mean))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda d: st.lists(
                st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.0, 8.0)),
                min_size=d,
                max_size=d,
            )
        )
    )
    def test_bitwise_equal_to_full_matrix(self, radii):
        # zeros and ties (drawn from a small pool), in any order
        assert dth_order_value(radii) == oracles.dth_order_full_matrix(radii)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.5, 12.0), min_size=2, max_size=8))
    def test_upper_bounds_independent_risk(self, radii):
        assert dth_order_value(radii) >= float(mp_independent_risk(radii))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 10))
    def test_scale_invariance(self, c):
        g = GaussianVec([-2.0, -1.0], [[1.1, -0.8], [-0.8, 1.0]])
        scaled = GaussianVec(c * g.mean, c * c * g.cov)
        assert risk_spectral(scaled).value == pytest.approx(risk_spectral(g).value, rel=1e-9)
        assert risk_first_order(scaled).value == pytest.approx(risk_first_order(g).value, rel=1e-9)
        assert risk_dth_order(scaled).value == pytest.approx(risk_dth_order(g).value, rel=1e-9)


@st.composite
def tail_instances(draw):
    """Gaussians at d = 1 to 25, dense or diagonal, with standardized
    margins in [0, 6]. Some components are set apart: a zero margin, an
    infinite one (a mean of -1e250 against a spread of about 1e-100) and a
    positive mean component."""
    d = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
    else:
        cov = np.diag(np.exp(rng.uniform(-4.0, 4.0, size=d)))
    kinds = draw(st.lists(st.sampled_from(["zero", "inf", "positive"]), max_size=min(d, 3), unique=True))
    if "inf" in kinds:
        cov = cov * 1e-200
    sigma = np.sqrt(cov.diagonal())
    mean = -rng.uniform(0.0, 6.0, size=d) * sigma
    for kind, i in zip(kinds, rng.permutation(d)):
        mean[i] = {"zero": 0.0, "inf": -1e250, "positive": 0.5 * sigma[i]}[kind]
    return GaussianVec(mean, cov)


class TestSharedTails:
    """Each estimator equals, bitwise, the chi-tail expression it stands
    for, however a ``GaussianVec`` shares the work between them."""

    # after the d-th-order risk, the first-order and spectral risks read
    # psi(min r) from its tails; before it, they evaluate psi(min r) alone
    @pytest.mark.parametrize("dth_first", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(g=tail_instances())
    def test_estimates_bitwise(self, dth_first, g):
        order = [risk_spectral, risk_first_order, risk_dth_order]
        if dth_first:
            order.reverse()
        estimates = {e.method: e for e in (estimate(g) for estimate in order)}
        if (g.mean > 0.0).any():
            assert [(e.defined, e.value) for e in estimates.values()] == [(False, None)] * 3
            return
        b_rho, b_1, b_d = (estimates[m].value for m in ("spectral", "first_order", "dth_order"))
        r_min = g.radii.min()
        assert b_1 == float(special.psi_array(r_min, g.dim))
        margins = np.array([-float(g.mean.max()) / g.sqrt_lambda_max, r_min])
        assert b_rho == max(special.psi_array(margins, g.dim).tolist())
        assert b_d == dth_order_value(g.radii)
        assert b_d <= b_1 <= b_rho

    def test_kept_tails_read_only(self):
        g = GaussianVec([-1.0, -2.0], [[1.0, 0.3], [0.3, 2.0]])
        risk_dth_order(g)
        for a in g.__dict__["_sorted_tails"]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("d", [1, 2, 25])
    def test_zero_and_infinite_margins(self, d):
        mean = np.full(d, -2.0)
        mean[0] = 0.0 if d > 1 else -1e250
        mean[-1] = -1e250
        g = GaussianVec(mean, 1e-200 * np.eye(d))
        assert g.radii[-1] == math.inf
        assert risk_first_order(g).value == risk_spectral(g).value == (1.0 if d > 1 else 0.0)
        assert risk_dth_order(g).value == dth_order_value(g.radii)


class TestWilsonInterval:
    def test_brackets_proportion(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_zero_successes_positive_upper(self):
        lo, hi = wilson_interval(0, 10**5)
        assert lo == 0.0
        assert 0.0 < hi < 1e-4

    def test_all_successes(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert lo > 0.95

    def test_shrinks_like_sqrt_n(self):
        w1 = np.diff(wilson_interval(100, 1000))[0]
        w2 = np.diff(wilson_interval(10000, 100000))[0]
        assert w2 == pytest.approx(w1 / 10, rel=0.05)


class TestMcRisk:
    def test_scalar_median(self):
        mc = mc_risk(scalar(0.0, 1.0), 10**6, 0)
        assert mc.estimate == pytest.approx(0.5, abs=0.002)

    def test_independent_product(self):
        g = GaussianVec([-1.959964, -1.959964], np.eye(2))
        mc = mc_risk(g, 10**6, 1)
        assert mc.estimate == pytest.approx(1 - 0.975**2, abs=0.001)

    def test_deterministic_per_seed(self, example_2d):
        a = mc_risk(example_2d, 10**5, 123)
        b = mc_risk(example_2d, 10**5, 123)
        assert a.estimate == b.estimate

    def test_ci_brackets_estimate(self, example_2d):
        mc = mc_risk(example_2d, 10**4, 5)
        assert mc.ci_low <= mc.estimate <= mc.ci_high

    def test_exact_1d_within_ci(self):
        g = scalar(-1.5, 1.0)
        mc = mc_risk(g, 10**6, 17)
        exact = risk_exact_1d(g).value
        assert mc.ci_low <= exact <= mc.ci_high

    def test_overestimation_soundness(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            mean = -rng.uniform(0.2, 2.5, size=d) * np.sqrt(np.diag(cov))
            g = GaussianVec(mean, cov)
            mc = mc_risk(g, 10**5, 99)
            floor = mc.estimate - 5 * mc.ci_halfwidth
            for est in (risk_spectral(g), risk_first_order(g), risk_dth_order(g)):
                assert est.value >= floor

    def test_serialization_records_seed_and_n(self, example_2d):
        payload = json.loads(_dump_json(mc_risk(example_2d, 10**4, 31)))
        assert payload["n_samples"] == 10**4
        assert payload["seed"] == 31


class TestMcSectorProbability:
    def test_zero_angle(self):
        mc = mc_sector_probability(3, 0.5, 1.5, [1.0, 0.0, 0.0], 0.0, 10**4, 0)
        assert mc.estimate == 0.0

    def test_planar_half_space(self):
        mc = mc_sector_probability(2, 0.0, 50.0, [0.0, 1.0], math.pi / 2, 10**6, 2)
        assert mc.estimate == pytest.approx(0.5, abs=0.002)

    def test_matches_closed_form(self):
        d, r1, r2, theta = 3, 1.0, 2.0, math.pi / 3
        axis = np.zeros(d)
        axis[0] = 1.0
        mc = mc_sector_probability(d, r1, r2, axis, theta, 10**6, 4)
        closed = 0.5 * sector_fraction(math.cos(theta), d) * (psi(r1, d) - psi(r2, d))
        assert abs(mc.estimate - closed) <= 5 * mc.ci_halfwidth

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            mc_sector_probability(1, 0.0, 1.0, [1.0], 0.5, 100, 0)
        with pytest.raises(ValueError):
            mc_sector_probability(2, 2.0, 1.0, [1.0, 0.0], 0.5, 100, 0)
        with pytest.raises(ValueError):
            mc_sector_probability(2, 0.0, 1.0, [2.0, 0.0], 0.5, 100, 0)


class TestMcChunking:
    def test_counting_independent_of_chunk(self, monkeypatch, example_2d):
        # 70_001 is a multiple of neither chunk size, so both leave a partial chunk
        results = []
        for chunk in (7, 65_536):
            monkeypatch.setattr(oracles, "_MC_CHUNK", chunk)
            results.append(
                (
                    mc_risk(example_2d, 70_001, 8),
                    mc_sector_probability(3, 0.5, 2.0, [0.6, 0.0, 0.8], 1.0, 70_001, 9),
                )
            )
        assert results[0] == results[1]

    def test_directional_block_merge_matches_two_pass(self, monkeypatch, example_2d):
        # the reference's block histograms, merged over looks at 16 and 32
        # draws and the cap of 45 in 7-draw blocks, the last of each look
        # partial, against the two-pass mean and variance of the same draws,
        # each one followed draw by draw
        monkeypatch.setattr(risk, "_BLOCK", 7)
        monkeypatch.setattr(risk, "_FIRST_LOOK", 16)
        n, seed = 45, 8
        g = example_2d
        a = g.chol / np.linalg.norm(g.chol, axis=1)[:, None]
        p = [float(mpmath.ncdf(-x)) for x in g.radii]
        mu = sum(p)
        values = []
        for b, m in enumerate((7, 7, 2, 7, 7, 2, 7, 6)):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,))))
            z = rng.standard_normal((2, m))  # one draw per column
            pick, u = rng.random((2, m))
            for zi, pi, ui in zip(z.T, pick, u):
                j = 0 if pi < p[0] / mu else 1
                t = -float(mpmath.sqrt(2) * mpmath.erfinv(2 * (1 - ui) * p[j] - 1))
                y = a @ zi
                y = y + (t - y[j]) * (a @ a[j])
                s_count = 1 + sum(y[i] > g.radii[i] for i in range(2) if i != j)
                values.append(mu / s_count)
        values = np.array(values)
        assert values.size == n
        mean, var = float(values.mean()), float(values.var(ddof=1))
        # empirical-Bernstein at error level 0.05 / 6, over 3 looks and 2 bounds
        delta = 0.05 / 6
        log = math.log(4 / delta)
        half = math.sqrt(2 * var * log / n) + 7 * (mu / 2) * log / (3 * (n - 1))
        several = int(np.count_nonzero(values < mu))
        q = beta_law.ppf(1 - delta, several + 1, n - several)
        ds = reference(example_2d, n, seed, tol=0.0)
        assert ds.n_samples == n
        assert ds.estimate == pytest.approx(mean, rel=1e-12)
        assert ds.ci_low == pytest.approx(max(mean - half, mu * (1 - q / 2)), rel=1e-9)
        assert ds.ci_high == pytest.approx(min(mean + half, mu), rel=1e-9)


class TestDirectionalParallel:
    """The reference's blocks on the thread pool."""

    N = 3 * risk._BLOCK + 7  # three full blocks and a partial fourth

    def test_identical_for_any_worker_count(self, monkeypatch, example_2d):
        results = []
        for workers in (1, 3):
            monkeypatch.setattr(risk, "_WORKERS", workers)
            monkeypatch.setattr(risk, "_POOL", None)
            results.append(reference(example_2d, self.N, 11, tol=0.0))
            if risk._POOL is not None:
                risk._POOL.shutdown()
        assert results[0] == results[1]

    def test_batch_equals_scalar_calls(self, example_2d):
        g2 = GaussianVec([-1.5, -2.5, -0.5], [[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 0.5]])
        for tol in (0.0, REF_TOL):
            batch = aloe_risks([example_2d, g2], self.N, [4, 5], tol)
            assert batch == [reference(example_2d, self.N, 4, tol), reference(g2, self.N, 5, tol)]

    def test_checks_every_instance_before_drawing(self, monkeypatch, example_2d):
        def no_draw(task):
            raise AssertionError("drew before checking every instance")

        monkeypatch.setattr(risk, "_aloe_block", no_draw)
        with pytest.raises(ValueError, match="mean <= 0"):
            aloe_risks([example_2d, GaussianVec([-1.0, 0.5], np.eye(2))], 100, [0, 1])
        with pytest.raises(ValueError, match="one seed per"):
            aloe_risks([example_2d, example_2d], 100, [0])
        with pytest.raises(ValueError, match="half-width"):
            aloe_risks([example_2d], 100, [0], -0.1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_after_pool_use(self, monkeypatch, example_2d):
        # the child inherits the pool object but not its threads
        monkeypatch.setattr(risk, "_WORKERS", 2)
        expected = reference(example_2d, self.N, 12, tol=0.0)
        assert risk._POOL is not None
        ctx = multiprocessing.get_context("fork")
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            with ctx.Pool(1) as pool:
                child = pool.apply_async(aloe_risks, ([example_2d], self.N, [12], 0.0)).get(timeout=60)
        assert child == [expected]

    def test_stopping_point_independent_of_worker_count(self, monkeypatch):
        # references that stop at different looks, and one at the cap
        gs = [GaussianVec(-np.full(6, 3.6), np.eye(6))]
        for rho, margin in ((0.5, 3.9), (0.9, 3.5), (0.9, 6.0)):
            gs.append(GaussianVec(-np.full(12, margin), np.full((12, 12), rho) + (1 - rho) * np.eye(12)))
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(risk, "_WORKERS", workers)
            monkeypatch.setattr(risk, "_POOL", None)
            results.append([_dump_json(r) for r in aloe_risks(gs, 40_000, [1, 2, 3, 4])])
            if risk._POOL is not None:
                risk._POOL.shutdown()
        assert results[0] == results[1]
        assert len({json.loads(r)["n_samples"] for r in results[0]}) >= 3

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("shared_bytes", [None, 1], ids=["one-pass", "pass-per-key"])
    def test_shared_seeds_equal_single_calls(self, monkeypatch, workers, shared_bytes):
        # references that share a seed read the same draws. Four d = 12
        # members on seed 1 stop at the 16,384 look, at the 65,536 look and
        # at the cap; one of those has 11 constraints, as its twelfth has
        # p = 0. Two more on seed 2 share the first round only, and the
        # d = 6 member on seed 1 has a key of its own.
        cap = 70_000
        one_dropped = GaussianVec(-np.array([3.9] * 11 + [40.0]), np.full((12, 12), 0.5) + 0.5 * np.eye(12))
        gs = [
            _equicorrelated(12, 3.9, 0.5),
            _equicorrelated(12, 3.5, 0.9),
            _equicorrelated(12, 6.0, 0.9),
            one_dropped,
            _independent(12, 3.6),
            _independent(12, 4.5),
            _independent(6, 3.6),
        ]
        seeds = [1, 1, 1, 1, 2, 2, 1]
        single = [reference(g, cap, s) for g, s in zip(gs, seeds)]
        assert sorted({r.n_samples for r in single}) == [1024, 16_384, 65_536, cap]
        keys = []
        draw = risk._draw

        def recorded(key):
            keys.append(key)
            return draw(key)

        monkeypatch.setattr(risk, "_draw", recorded)
        if shared_bytes is not None:
            monkeypatch.setattr(risk, "_SHARED_BYTES", shared_bytes)
        monkeypatch.setattr(risk, "_WORKERS", workers)
        monkeypatch.setattr(risk, "_POOL", None)
        # the threads read the shared arrays while others switch in often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert aloe_risks(gs, cap, seeds) == single
        finally:
            sys.setswitchinterval(interval)
            if risk._POOL is not None:
                risk._POOL.shutdown()
        # each shared key drawn once: seed 2's first block, and seed 1's
        # eight blocks at d = 12 up to the 65,536 look; the ninth, to the
        # cap, has one reader left
        assert len(keys) == len(set(keys)) == 1 + 8
        assert {(seed, d) for seed, _, _, d in keys} == {(1, 12), (2, 12)}


class TestChiTail:
    """``special.psi_array``, the chi tail every estimator evaluates,
    against mpmath, from psi = 1 down to psi = 1e-300, up to d = 501."""

    DIMS = [*range(1, 51), 500, 501]

    @pytest.mark.parametrize("d", DIMS)
    def test_relative_accuracy_into_deep_tail(self, d):
        t = np.linspace(0.0, math.sqrt(2.0 * gammainccinv(d / 2, 1e-300)), 41)
        got = special.psi_array(t, d)
        for x, value in zip(t, got):
            want = mpmath.gammainc(mpmath.mpf(d) / 2, mpmath.mpf(x) ** 2 / 2, mpmath.inf, regularized=True)
            assert value == pytest.approx(float(want), rel=1e-12, abs=0), x

    @pytest.mark.parametrize("d", DIMS[:-1])
    def test_exact_at_zero_and_beyond_double_range(self, d):
        # no NaN on the way: a radius whose square overflows reads as inf
        with np.errstate(invalid="raise", divide="raise", over="ignore", under="ignore"):
            got = special.psi_array(np.array([0.0, math.inf, 1e200, math.sqrt(3000.0)]), d)
        assert got.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestMarginBeyondDoubleRange:
    """-mean / sigma overflows to +inf: a constraint that is never violated."""

    @pytest.fixture(autouse=True)
    def _no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_estimators(self):
        g = GaussianVec([-1e200, -1e-149], np.diag([1e-300, 1e-300]))
        assert g.radii.tolist() == [math.inf, 10.0]
        tail = math.exp(-50.0)  # psi(10, 2)
        assert risk_spectral(g).value == pytest.approx(tail, rel=1e-12)
        assert risk_first_order(g).value == pytest.approx(tail, rel=1e-12)
        # the shell beyond r = 10 is cut in half by the near constraint
        assert risk_dth_order(g).value == pytest.approx(tail / 2, rel=1e-12)

    def test_finite_margin_whose_square_overflows(self):
        # r = 1e200 is finite, but psi squares it: silently, to psi = 0
        g = GaussianVec([-1e200, -3.0], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert risk_dth_order(g).value == pytest.approx(psi(3.0, 2) / 2, rel=1e-12)
            assert risk_first_order(g).value == risk_spectral(g).value == psi(3.0, 2)

    def test_scalar_is_zero(self):
        g = scalar(-1e200, 1e-300)
        assert g.radii.tolist() == [math.inf]
        for estimate in (risk_spectral, risk_first_order, risk_dth_order, risk_exact_1d, risk_nakka_chung):
            assert estimate(g).value == 0.0
        ds = reference(g, 1000, 0)
        assert (ds.estimate, ds.ci_low, ds.ci_high, ds.n_samples) == (0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize(
        "radii,want",
        [([math.inf], 0.0), ([math.inf, math.inf], 0.0), ([math.inf, 1.0, math.inf], 0.5 * psi(1.0, 3))],
        ids=["one", "two", "between"],
    )
    def test_dth_order_value(self, radii, want):
        assert dth_order_value(radii) == pytest.approx(want, rel=1e-12, abs=0)

    def test_reference(self):
        g = GaussianVec([-1e200, -1e-149], np.diag([1e-300, 1e-300]))
        ds = reference(g, 10**4, 3)
        truth = float(mpmath.ncdf(-10))
        assert abs(ds.estimate - truth) <= 5 * ds.ci_halfwidth

    def test_reference_direction_beyond_double_range(self):
        # a margin of 1e-300 against a spread of 1e10: the standardized
        # margin is 1e-310, subnormal, so the risk is 1/2
        g = scalar(-1e-300, 1e20)
        assert reference(g, 1000, 0).estimate == pytest.approx(0.5, rel=1e-12)


def _correlated_gaussian(kind, d, seed, lo):
    """A random, equicorrelated or near-rank-2 covariance with standardized
    margins drawn from [lo, 7]."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        a = rng.normal(size=(d, d))
        corr = a @ a.T + 0.1 * np.eye(d)
    elif kind == "equicorrelated":
        rho = rng.uniform(-1.0 / (d - 1) + 0.01, 0.9)
        corr = np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
    else:
        b = rng.normal(size=(d, 2))
        corr = b @ b.T + 1e-3 * np.eye(d)
    scale = np.exp(rng.uniform(-2.0, 2.0, size=d)) / np.sqrt(np.diag(corr))
    cov = corr * np.outer(scale, scale)
    margins = rng.uniform(lo, 7.0, size=d)
    return GaussianVec(-margins * np.sqrt(np.diag(cov)), cov)


class TestDirectionalRisk:
    """The reference risk, ``risk.aloe_risks``, one distribution at a time."""

    # k = 37 puts the risk at 5.7e-300
    @pytest.mark.parametrize("k", [*range(1, 10), 12, 20, 30, 37])
    @pytest.mark.parametrize("sigma", [0.7, 3.1])
    def test_d1_exact(self, k, sigma):
        # one constraint: every draw violates it alone, S = 1, and gives mu
        truth = float(mpmath.ncdf(-k))
        ds = reference(scalar(-k * sigma, sigma * sigma), 1000, k)
        assert ds.estimate == pytest.approx(truth, rel=1e-12, abs=0)
        assert ds.ci_low <= truth <= ds.ci_high

    @pytest.mark.parametrize(
        "d,margins", [(2, (0.8, 1.5, 2.5, 3.2)), (6, (1.2, 2.0, 3.0, 3.5)), (12, (1.6, 2.5, 3.0, 3.7))],
        ids=["d2", "d6", "d12"],
    )
    def test_agrees_with_counting(self, d, margins):
        # equal standardized margins, chosen for risks from 0.5 down to 1e-3
        rng = np.random.default_rng(40 + d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        sigma = np.sqrt(np.diag(cov))
        for r in margins:
            g = GaussianVec(-r * sigma, cov)
            mc = mc_risk(g, 10**6, 1)
            ds = reference(g, 10**5, 2)
            assert 1e-3 <= mc.estimate <= 0.5
            assert abs(ds.estimate - mc.estimate) <= 5 * math.hypot(ds.ci_halfwidth, mc.ci_halfwidth)

    def test_zero_mean_component(self):
        # the first constraint is active at the origin
        ds = reference(GaussianVec([0.0, -2.0], np.eye(2)), 10**5, 0)
        truth = 1.0 - 0.5 * float(mpmath.ncdf(2.0))
        assert math.isfinite(ds.estimate)
        assert abs(ds.estimate - truth) <= 5 * ds.ci_halfwidth

    def test_rejects_positive_mean_and_empty_draw(self, example_2d):
        with pytest.raises(ValueError):
            reference(GaussianVec([0.5, -1.0], np.eye(2)), 100, 0)
        with pytest.raises(ValueError):
            reference(example_2d, 0, 0)

    def test_deterministic_per_seed(self, example_2d):
        # example_2d's constraints are negatively correlated and never fail
        # together: every draw gives the Boole sum, whatever the seed
        g = GaussianVec(example_2d.mean, [[1.1, 0.8], [0.8, 1.0]])
        a = reference(g, 10**4, 123)
        assert reference(g, 10**4, 123) == a
        assert reference(g, 10**4, 124).estimate != a.estimate

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_pair_has_no_interval(self, n, example_2d):
        # one or two draws leave the empirical-Bernstein bound wider than
        # the values' range: the interval is the Clopper-Pearson one, up to
        # the Boole sum mu and no lower than mu / m
        mu = float(sum(mpmath.ncdf(-x) for x in example_2d.radii))
        ds = reference(example_2d, n, 0)
        assert ds.n_samples == n
        assert ds.ci_high == pytest.approx(mu, rel=1e-12)
        assert mu / 2 <= ds.ci_low < ds.estimate < 1.0

    def test_serialization_names_estimator(self, example_2d):
        assert json.loads(_dump_json(reference(example_2d, 10, 0)))["estimator"] == "aloe"
        assert json.loads(_dump_json(mc_risk(example_2d, 10, 0)))["estimator"] == "counting"

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["random", "equicorrelated", "near_rank_2"]),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 7.0),
    )
    def test_dth_order_bounds_correlated_deep_tail(self, kind, d, seed, lo):
        # the only upper-bound check on correlated instances in the tail,
        # where plain counting sees no hits
        g = _correlated_gaussian(kind, d, seed, lo)
        ds = reference(g, 20_000, seed)
        assert risk_dth_order(g).value >= ds.estimate - 5 * ds.ci_halfwidth


def _independent(d, margin):
    return GaussianVec(-np.full(d, margin), np.eye(d))


def _equicorrelated(d, margin, rho):
    return GaussianVec(-np.full(d, margin), np.full((d, d), rho) + (1.0 - rho) * np.eye(d))


class TestAloeInterval:
    """The reference's 95% interval: its coverage, its stopping rule and
    the edges of its draws."""

    SEEDS = list(range(20))

    @pytest.mark.parametrize(
        "g,truth",
        [
            # independent components at risks of about 1e-3, 1e-7 and 1e-10
            *(
                (_independent(d, r), mp_independent_risk([r] * d))
                for d, margins in ((6, (3.59, 5.52, 6.63)), (25, (3.94, 5.77, 6.84)))
                for r in margins
            ),
            # equicorrelated at risks of 1.0e-3 and 1.2e-8; rho = 0.9 is
            # ALOE's weak case, where many constraints fail together
            (_equicorrelated(25, 3.91, 0.5), mp_equicorrelated_risk(3.91, 0.5, 25)),
            (_equicorrelated(25, 6.0, 0.9), mp_equicorrelated_risk(6.0, 0.9, 25)),
        ],
        ids=["d6-1e-3", "d6-1e-7", "d6-1e-10", "d25-1e-3", "d25-1e-7", "d25-1e-10", "rho0.5", "rho0.9"],
    )
    def test_covers_the_exact_risk(self, g, truth):
        truth = float(truth)
        results = aloe_risks([g] * len(self.SEEDS), 10**6, self.SEEDS)
        covered = sum(r.ci_low <= truth <= r.ci_high for r in results)
        assert covered >= 0.95 * len(results)
        # each stopped at its target, well before the cap
        assert all(r.ci_halfwidth <= REF_TOL * r.estimate and r.n_samples < 10**6 for r in results)

    def test_tighter_target_draws_more(self):
        g = _equicorrelated(12, 3.5, 0.5)
        loose, tight = (reference(g, 10**6, 3, tol) for tol in (0.01, 0.002))
        assert tight.n_samples > loose.n_samples
        assert tight.ci_halfwidth <= 0.002 * tight.estimate

    def test_cap_reached_before_the_target(self):
        # rho = 0.9 needs far more than 2000 draws for a 1% half-width
        g = _equicorrelated(25, 3.5, 0.9)
        truth = float(mp_equicorrelated_risk(3.5, 0.9, 25))
        ds = reference(g, 2000, 5)
        assert ds.n_samples == 2000
        assert ds.ci_halfwidth > REF_TOL * ds.estimate
        assert 0.0 < ds.ci_low <= truth <= ds.ci_high < 1.0

    @pytest.mark.parametrize("raw", [0.0, float(np.nextafter(1.0, 0.0))], ids=["u-one", "u-least"])
    def test_extreme_uniforms_give_no_nan(self, monkeypatch, raw):
        # u = 1 - raw: raw = 0 puts t at the margin; raw just below 1 picks
        # the second constraint and makes u p_j = 2^-53 * 1.5e-308 round to
        # 0, where t = inf would meet the 0 correlation with the first
        class Edge(np.random.Generator):
            def random(self, size=None):
                return np.full(size, raw)

        monkeypatch.setattr(np.random, "Generator", Edge)
        g = GaussianVec([-37.53, -37.53], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise", under="ignore"):
                counts = risk._aloe_block((risk._events(g), 0, 0, 64))
        assert counts.sum() == 64 and counts[0] == 0
