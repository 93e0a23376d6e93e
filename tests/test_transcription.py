"""Transcription methods: scalar baseline bounds, the three multidimensional
methods, tightness at the matching risk level, and the dominance chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrisk.gaussian import GaussianVec, sample
from ccrisk.risk import (
    mc_risk,
    risk_dth_order,
    risk_first_order,
    risk_spectral,
)
from ccrisk.special import psi, psi_inv
from ccrisk.transcription import (
    METHODS,
    Method,
    bound_linear_1d,
    bound_nakka_chung,
    bound_norm_highdim,
    bound_norm_lowdim,
    transcribe_dth_order,
    transcribe_first_order,
    transcribe_linear_1d,
    transcribe_nakka_chung,
    transcribe_spectral_radius,
)

betas = st.floats(1e-6, 1 - 1e-6)


class TestScalarBounds:
    def test_norm_highdim_zero_rho(self):
        assert bound_norm_highdim(0.3, 4, 0.0) == 0.0

    def test_norm_highdim_closed_form(self):
        assert bound_norm_highdim(math.exp(-0.5), 4, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_norm_lowdim_closed_form(self):
        assert bound_norm_lowdim(math.exp(-2.0), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_norm_lowdim_vanishes_near_one(self):
        assert bound_norm_lowdim(1 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-5)

    def test_linear_1d_median(self):
        assert bound_linear_1d(0.5, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_1d_quantile(self):
        assert bound_linear_1d(0.025, 1.0) == pytest.approx(1.959964, abs=1e-6)
        assert bound_linear_1d(0.025, 4.0) == pytest.approx(3.919928, abs=2e-6)

    def test_nakka_chung_values(self):
        assert bound_nakka_chung(0.5, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert bound_nakka_chung(0.1, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert bound_nakka_chung(0.5, 9.0) == pytest.approx(3.0, rel=1e-12)

    @given(betas, st.floats(0.01, 100))
    def test_linear_below_nakka_chung(self, beta, var):
        assert bound_linear_1d(beta, var) <= bound_nakka_chung(beta, var) + 1e-12

    @given(st.floats(0.1, 10))
    def test_monotone_in_beta(self, var):
        grid = [1e-5, 1e-3, 0.1, 0.5, 0.9, 0.999]
        for bound in (
            lambda b: bound_linear_1d(b, var),
            lambda b: bound_nakka_chung(b, var),
            lambda b: bound_norm_lowdim(b, var),
            lambda b: bound_norm_highdim(b, 3, var),
        ):
            values = [bound(b) for b in grid]
            assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_degenerate_beta(self, beta):
        with pytest.raises(ValueError):
            bound_linear_1d(beta, 1.0)
        with pytest.raises(ValueError):
            bound_nakka_chung(beta, 1.0)
        with pytest.raises(ValueError):
            bound_norm_lowdim(beta, 1.0)
        with pytest.raises(ValueError):
            bound_norm_highdim(beta, 2, 1.0)


class TestSpectralRadiusTranscription:
    def test_zero_mean_never_satisfied(self):
        g = GaussianVec([0.0, 0.0], np.eye(2))
        assert not transcribe_spectral_radius(g, 0.9).satisfied

    def test_tight_at_own_risk_level(self, example_2d):
        beta = risk_spectral(example_2d).value
        verdict = transcribe_spectral_radius(example_2d, beta)
        # at the estimator's own level, the worst margin sits on the boundary
        assert np.max(verdict.margins) == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(verdict.margins, example_2d.mean + 1.0, atol=1e-10)

    def test_scalar_tightness(self):
        g = GaussianVec([-5.0], [[1.0]])
        verdict = transcribe_spectral_radius(g, psi(5.0, 1))
        assert verdict.margins[0] == pytest.approx(0.0, abs=1e-10)


class TestFirstOrderTranscription:
    def test_boundary_mean(self):
        beta, d = 0.05, 3
        sigma = np.array([1.0, 2.0, 0.5])
        g = GaussianVec(-psi_inv(beta, d) * sigma, np.diag(sigma**2))
        verdict = transcribe_first_order(g, beta)
        assert verdict.satisfied
        assert np.max(np.abs(verdict.margins)) < 1e-12

    def test_tight_at_min_radius(self, example_2d):
        verdict = transcribe_first_order(example_2d, psi(1.0, 2))
        assert verdict.margins[1] == pytest.approx(0.0, abs=1e-12)

    def test_positive_mean_never_satisfied(self):
        g = GaussianVec([0.5, -1.0], np.eye(2))
        for beta in (1e-6, 0.5, 1 - 1e-6):
            assert not transcribe_first_order(g, beta).satisfied


class TestQuantileVector:
    """The first-order margins are the componentwise (1 - beta)-quantile
    bound mean + psi_inv(beta, d) * sigma."""

    def test_scalar_tightness(self):
        g = GaussianVec([0.0], [[1.0]])
        assert transcribe_first_order(g, psi(2.0, 1)).margins[0] == pytest.approx(2.0, abs=1e-10)

    def test_mc_coverage(self, example_2d):
        beta = 1e-3
        q = transcribe_first_order(example_2d, beta).margins
        expected = example_2d.mean + psi_inv(beta, 2) * np.array([math.sqrt(1.1), 1.0])
        assert np.allclose(q, expected, rtol=1e-12)
        s = sample(example_2d, 2 * 10**5, 9)
        coverage = np.mean(np.all(s <= q, axis=1))
        assert coverage >= 1 - beta - 5e-4


class TestDthOrderTranscription:
    def test_zero_mean_not_satisfied(self):
        g = GaussianVec([0.0, 0.0], np.eye(2))
        assert not transcribe_dth_order(g, 0.999).satisfied

    def test_boundary_at_own_risk(self, example_2d):
        beta = risk_dth_order(example_2d).value
        verdict = transcribe_dth_order(example_2d, beta)
        assert verdict.satisfied
        assert verdict.margins[0] == pytest.approx(0.0, abs=1e-15)

    def test_satisfied_below_beta(self):
        g = GaussianVec([-4.0, -4.0], np.eye(2))
        risk = risk_dth_order(g).value
        assert transcribe_dth_order(g, 2 * risk).satisfied
        assert not transcribe_dth_order(g, risk / 2).satisfied

    def test_positive_mean_component(self):
        g = GaussianVec([0.5, -3.0], np.eye(2))
        verdict = transcribe_dth_order(g, 0.5)
        assert not verdict.satisfied


class TestMethodInterplay:
    @pytest.mark.parametrize("beta", [1e-3, 0.05, 0.4])
    def test_dominance_chain(self, beta):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            mean = -rng.uniform(0.1, 4.0, size=d) * np.sqrt(np.diag(cov))
            g = GaussianVec(mean, cov)
            sat_rho = transcribe_spectral_radius(g, beta).satisfied
            sat_1 = transcribe_first_order(g, beta).satisfied
            sat_d = transcribe_dth_order(g, beta).satisfied
            if sat_rho:
                assert sat_1
            if sat_1:
                assert sat_d

    def test_d1_coincidence(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            g = GaussianVec([-float(rng.uniform(0.2, 4.0))], [[float(rng.uniform(0.1, 4.0))]])
            for beta in (1e-4, 0.2, 0.8):
                v_rho = transcribe_spectral_radius(g, beta)
                v_1 = transcribe_first_order(g, beta)
                v_d = transcribe_dth_order(g, beta)
                assert v_rho.satisfied == v_1.satisfied == v_d.satisfied
                assert v_rho.margins[0] == pytest.approx(v_1.margins[0], abs=1e-12)

    def test_satisfied_implies_mc_safe(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(30):
            d = int(rng.integers(1, 5))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            mean = -rng.uniform(1.0, 4.0, size=d) * np.sqrt(np.diag(cov))
            g = GaussianVec(mean, cov)
            beta = float(rng.uniform(0.01, 0.5))
            for verdict in (
                transcribe_spectral_radius(g, beta),
                transcribe_first_order(g, beta),
                transcribe_dth_order(g, beta),
            ):
                if not verdict.satisfied:
                    continue
                mc = mc_risk(g, 10**5, 77)
                assert mc.estimate <= beta + 5 * mc.ci_halfwidth
                checked += 1
        assert checked > 10  # the generator must actually exercise the branch

    def test_verdict_serialization(self, example_2d):
        verdict = transcribe_first_order(example_2d, 0.1)
        payload = verdict.to_dict()
        assert payload["method"] == "first_order"
        assert payload["satisfied"] is False
        assert len(payload["margins"]) == 2


class TestScalarTranscriptions:
    @pytest.mark.parametrize(
        "transcribe,bound", [(transcribe_linear_1d, bound_linear_1d), (transcribe_nakka_chung, bound_nakka_chung)]
    )
    def test_margin_is_mean_plus_bound(self, transcribe, bound):
        g = GaussianVec([-5.0], [[1.0]])
        verdict = transcribe(g, 1e-3)
        assert verdict.margins.tolist() == [-5.0 + bound(1e-3, 1.0)]
        assert verdict.satisfied == (verdict.margins[0] <= 0.0)

    @pytest.mark.parametrize("method", [Method.LINEAR_1D, Method.NAKKA_CHUNG])
    def test_rejects_vector_input(self, method, example_2d):
        transcribe, _ = METHODS[method]
        with pytest.raises(ValueError, match=f"^method '{method.value}' only applies to scalar constraints$"):
            transcribe(example_2d, 0.1)


class TestMethodTable:
    def test_keys_are_every_method(self):
        assert list(METHODS) == list(Method)

    @pytest.mark.parametrize("mean,var", [(-0.5, 1.0), (-2.0, 0.3), (-4.0, 2.0)])
    def test_each_transcription_tight_at_its_risk(self, mean, var):
        # each table entry pairs a transcription with the risk level at
        # which it becomes tight; every method applies at d = 1
        g = GaussianVec([mean], [[var]])
        for method, (transcribe, risk) in METHODS.items():
            verdict = transcribe(g, risk(g).value)
            assert verdict.method is method
            assert np.max(verdict.margins) == pytest.approx(0.0, abs=1e-9)


class TestSharedWork:
    """The three transcriptions and the three risk estimators on one
    GaussianVec share its factor, its eigenvalues and its d-th-order risk."""

    @pytest.mark.parametrize("d", [6, 25])
    def test_each_shared_quantity_computed_once(self, d, monkeypatch):
        import ccrisk.risk

        calls = {"cholesky": 0, "eigvalsh": 0, "dth_order_value": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            ccrisk.risk, "dth_order_value", counted("dth_order_value", ccrisk.risk.dth_order_value)
        )
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        g = GaussianVec(-rng.uniform(1.0, 4.0, size=d) * np.sqrt(np.diag(cov)), cov)
        for _ in range(2):
            transcribe_spectral_radius(g, 1e-3)
            transcribe_first_order(g, 1e-3)
            transcribe_dth_order(g, 1e-3)
            risk_spectral(g)
            risk_first_order(g)
            risk_dth_order(g)
        assert calls == {"cholesky": 1, "eigvalsh": 1, "dth_order_value": 1}
