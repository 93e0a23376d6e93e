"""Risk estimators against closed forms and the Monte-Carlo oracles."""

import json
import math
import multiprocessing
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammainccinv

from ccrisk import risk
from ccrisk.cli import _dump_json
from ccrisk.gaussian import GaussianVec
from ccrisk.risk import (
    directional_risk,
    directional_risks,
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
from oracles import mc_risk, mc_sector_probability, wilson_interval

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


def mp_independent_risk(radii):
    """Exact risk 1 - prod Phi(r_i) of independent unit components, as
    -expm1(sum log1p(-Phi(-r_i))) so the deep tail keeps its digits."""
    return -mpmath.expm1(mpmath.fsum(mpmath.log1p(-mpmath.ncdf(-mpmath.mpf(float(x)))) for x in radii))


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
        # 7-pair blocks, the last one partial: the blocks' centred sums merge
        # to the two-pass mean and variance of the same pair means
        monkeypatch.setattr(risk, "_BLOCK", 7)
        n, seed = 2 * (3 * 7) + 6, 8
        v = []
        for b, m in enumerate((7, 7, 7, 3)):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,))))
            z = rng.standard_normal((m, 2))
            y = z @ example_2d.chol.T
            for sign in (1.0, -1.0):
                # exit radius of the ray along sign * z: the nearest
                # constraint it crosses
                scale = np.where(sign * y > 0.0, -example_2d.mean / (sign * y), np.inf)
                t = np.linalg.norm(z, axis=1) * scale.min(axis=1)
                v.append([psi(float(x), 2) if math.isfinite(x) else 0.0 for x in t])
        pair_means = 0.5 * (np.concatenate(v[0::2]) + np.concatenate(v[1::2]))
        assert pair_means.size == 24
        mean = float(np.mean(pair_means))
        half = 1.959963984540054 * float(np.std(pair_means, ddof=1)) / math.sqrt(pair_means.size)
        ds = directional_risk(example_2d, n, seed)
        assert ds.estimate == pytest.approx(mean, rel=1e-12)
        assert ds.ci_halfwidth == pytest.approx(half, rel=1e-9)


class TestDirectionalParallel:
    N = 2 * (3 * risk._BLOCK) + 7  # three full blocks and a partial fourth

    def test_identical_for_any_worker_count(self, monkeypatch, example_2d):
        results = []
        for workers in (1, 3):
            monkeypatch.setattr(risk, "_WORKERS", workers)
            monkeypatch.setattr(risk, "_POOL", None)
            results.append(directional_risk(example_2d, self.N, 11))
            if risk._POOL is not None:
                risk._POOL.shutdown()
        assert results[0] == results[1]

    def test_batch_equals_scalar_calls(self, example_2d):
        g2 = GaussianVec([-1.5, -2.5, -0.5], [[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 0.5]])
        batch = directional_risks([example_2d, g2], self.N, [4, 5])
        assert batch == [directional_risk(example_2d, self.N, 4), directional_risk(g2, self.N, 5)]

    def test_checks_every_instance_before_drawing(self, monkeypatch, example_2d):
        def no_draw(task):
            raise AssertionError("drew before checking every instance")

        monkeypatch.setattr(risk, "_directional_block", no_draw)
        with pytest.raises(ValueError, match="mean <= 0"):
            directional_risks([example_2d, GaussianVec([-1.0, 0.5], np.eye(2))], 100, [0, 1])
        with pytest.raises(ValueError, match="one seed per"):
            directional_risks([example_2d, example_2d], 100, [0])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_after_pool_use(self, monkeypatch, example_2d):
        # the child inherits the pool object but not its threads
        monkeypatch.setattr(risk, "_WORKERS", 2)
        expected = directional_risk(example_2d, self.N, 12)
        assert risk._POOL is not None
        ctx = multiprocessing.get_context("fork")
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            with ctx.Pool(1) as pool:
                child = pool.apply_async(directional_risk, (example_2d, self.N, 12)).get(timeout=60)
        assert child == expected


class TestChiTail:
    """The reference kernel's own chi tail against mpmath, from psi = 1
    down to psi = 1e-300, on both sides of the largest dimension its
    finite sum serves."""

    DIMS = [*range(1, 51), risk._SUM_MAX_D, risk._SUM_MAX_D + 1]

    @pytest.mark.parametrize("d", DIMS)
    def test_relative_accuracy_into_deep_tail(self, d):
        # the reference's interval has a half-width of at least 1e-12 of
        # the estimate, the relative accuracy of psi itself
        t = np.linspace(0.0, math.sqrt(2.0 * gammainccinv(d / 2, 1e-300)), 41)
        got = risk._chi_tail(t, d)
        for x, value in zip(t, got):
            want = mpmath.gammainc(mpmath.mpf(d) / 2, mpmath.mpf(x) ** 2 / 2, mpmath.inf, regularized=True)
            assert value == pytest.approx(float(want), rel=1e-12, abs=0), x

    @pytest.mark.parametrize("d", DIMS[:-1])
    def test_exact_at_zero_and_beyond_double_range(self, d):
        # no overflow or NaN on the way: only the final factors underflow
        with np.errstate(all="raise", under="ignore"):
            got = risk._chi_tail(np.array([0.0, math.inf, 1e200, risk._SUM_MAX_T]), d)
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

    def test_scalar_is_zero(self):
        g = scalar(-1e200, 1e-300)
        assert g.radii.tolist() == [math.inf]
        for estimate in (risk_spectral, risk_first_order, risk_dth_order, risk_exact_1d, risk_nakka_chung):
            assert estimate(g).value == 0.0
        assert directional_risk(g, 1000, 0).estimate == 0.0

    @pytest.mark.parametrize(
        "radii,want",
        [([math.inf], 0.0), ([math.inf, math.inf], 0.0), ([math.inf, 1.0, math.inf], 0.5 * psi(1.0, 3))],
        ids=["one", "two", "between"],
    )
    def test_dth_order_value(self, radii, want):
        assert dth_order_value(radii) == pytest.approx(want, rel=1e-12, abs=0)

    def test_reference(self):
        g = GaussianVec([-1e200, -1e-149], np.diag([1e-300, 1e-300]))
        ds = directional_risk(g, 10**4, 3)
        truth = float(mpmath.ncdf(-10))
        assert abs(ds.estimate - truth) <= 5 * ds.ci_halfwidth

    def test_reference_direction_beyond_double_range(self):
        # 1 / |mean| = 1e300 times (L z) ~ 1e10 overflows in the block kernel;
        # the margin itself is 1e-310, so the risk is 1/2
        g = scalar(-1e-300, 1e20)
        assert directional_risk(g, 1000, 0).estimate == pytest.approx(0.5, rel=1e-12)


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
    # k = 37 puts the risk at 5.7e-300
    @pytest.mark.parametrize("k", [*range(1, 10), 12, 20, 30, 37])
    @pytest.mark.parametrize("sigma", [0.7, 3.1])
    def test_d1_exact(self, k, sigma):
        truth = float(mpmath.ncdf(-k))
        ds = directional_risk(scalar(-k * sigma, sigma * sigma), 1000, k)
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
            ds = directional_risk(g, 10**5, 2)
            assert 1e-3 <= mc.estimate <= 0.5
            assert abs(ds.estimate - mc.estimate) <= 5 * math.hypot(ds.ci_halfwidth, mc.ci_halfwidth)

    def test_zero_mean_component(self):
        # the first constraint is active at the origin: every ray with a
        # positive first component fails at radius 0
        ds = directional_risk(GaussianVec([0.0, -2.0], np.eye(2)), 10**5, 0)
        truth = 1.0 - 0.5 * float(mpmath.ncdf(2.0))
        assert math.isfinite(ds.estimate)
        assert abs(ds.estimate - truth) <= 5 * ds.ci_halfwidth

    def test_rejects_positive_mean_and_empty_draw(self, example_2d):
        with pytest.raises(ValueError):
            directional_risk(GaussianVec([0.5, -1.0], np.eye(2)), 100, 0)
        with pytest.raises(ValueError):
            directional_risk(example_2d, 0, 0)

    def test_deterministic_per_seed(self, example_2d):
        a = directional_risk(example_2d, 10**4, 123)
        assert directional_risk(example_2d, 10**4, 123) == a
        assert directional_risk(example_2d, 10**4, 124).estimate != a.estimate

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_pair_has_no_interval(self, n, example_2d):
        ds = directional_risk(example_2d, n, 0)
        assert (ds.ci_low, ds.ci_high) == (0.0, 1.0)
        assert 0.0 < ds.estimate < 1.0

    def test_serialization_names_estimator(self, example_2d):
        assert json.loads(_dump_json(directional_risk(example_2d, 10, 0)))["estimator"] == "directional"
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
        ds = directional_risk(g, 20_000, seed)
        assert risk_dth_order(g).value >= ds.estimate - 5 * ds.ci_halfwidth
