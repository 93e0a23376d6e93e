"""Acceptance suite: one test per primary criterion, each emitting a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

These are end-to-end checks at the stated tolerances; the per-module detail
lives in the other test files.
"""

import math
import time

import numpy as np
import pytest

from ccrisk.cli import sweep_csv
from ccrisk.conservatism import conservatism, hierarchy_report
from ccrisk.experiments import run_sweep
from ccrisk.fixtures import DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, box_constraint_distribution
from ccrisk.gaussian import GaussianVec
from ccrisk.risk import (
    risk_dth_order,
    risk_exact_1d,
    risk_first_order,
    risk_nakka_chung,
    risk_norm_spectral,
    risk_spectral,
)
from ccrisk.special import psi, psi_inv, sector_fraction

from conftest import random_pd_gaussian
from oracles import mc_risk, mc_sector_probability


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def test_table1_reproduction():
    g = DEFAULT_FIXTURE.control_constraint()
    spectral = risk_norm_spectral(DEFAULT_FIXTURE.u0_mean, DEFAULT_FIXTURE.sigma_u0, DEFAULT_FIXTURE.u_max)
    nc = risk_nakka_chung(g)
    first = risk_first_order(g)
    ref = mc_risk(g, 10**8, 0)

    ok = (
        abs(spectral.value - 0.035) <= 0.001
        and abs(nc.value - 0.042) <= 0.001
        and 1.5e-6 <= first.value <= 2.0e-6
        and 0.5e-6 <= ref.estimate <= 2.0e-6
    )
    gammas = {
        "norm": (conservatism(spectral.value, ref.estimate), 3.5e4),
        "nc": (conservatism(nc.value, ref.estimate), 5.3e4),
        "first": (conservatism(first.value, ref.estimate), 1.8),
    }
    for got, expected in gammas.values():
        ok = ok and expected / 2 <= got <= expected * 2
    _report(
        "table1-reproduction",
        ok,
        f"risks {spectral.value:.4f}/{nc.value:.4f}/{first.value:.3e}, "
        f"mc {ref.estimate:.2e}, gammas "
        + ", ".join(f"{k}={v[0]:.3g}" for k, v in gammas.items()),
    )


def test_conservatism_spot_checks():
    g1 = conservatism(0.035, 1e-6)
    g2 = conservatism(1 - 4.5e-7, 1e-5)
    ok = 3.2e4 <= g1 <= 3.8e4 and 0.9e8 <= g2 <= 1.3e8
    _report("conservatism-spot-checks", ok, f"gamma(0.035,1e-6)={g1:.3g}, gamma(1-4.5e-7,1e-5)={g2:.3g}")


def test_table2_pattern():
    ok = True
    details = []
    for position_only, d, n_mc in ((True, 6, 10**7), (False, 12, 10**6)):
        g = box_constraint_distribution(DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, position_only)
        b_rho = risk_spectral(g).value
        b_1 = risk_first_order(g).value
        b_d = risk_dth_order(g).value
        ok = ok and b_d <= b_1 <= b_rho
        ref = mc_risk(g, n_mc, 2)

        def gamma(bt):
            return math.inf if bt >= 1.0 else conservatism(bt, ref.estimate)

        g_d, g_1, g_rho = gamma(b_d), gamma(b_1), gamma(b_rho)
        ok = ok and g_d < g_1 < g_rho
        if d == 12:
            ok = ok and b_1 > 1 - 1e-6 and b_d < 1 - 1e-3
        details.append(f"d={d}: b=({b_d:.3g},{b_1:.9g},{b_rho:.3g}) gamma=({g_d:.3g},{g_1:.3g},{g_rho:.3g})")
    _report("table2-pattern", ok, "; ".join(details))


def test_hierarchy_theorem_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for i in range(500):
        d = int(rng.integers(1, 13))
        g = random_pd_gaussian(rng, d, radius_hi=3.5)
        report = hierarchy_report(g, 10**6, int(rng.integers(0, 2**63)))
        est = report.estimates
        chain = est["dth_order"].value <= est["first_order"].value <= est["spectral"].value
        mc_ok = report.beta_r.estimate <= est["dth_order"].value + 5 * report.beta_r.ci_halfwidth
        if not (chain and mc_ok and report.hierarchy_ok):
            ok = False
            break
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    _report("hierarchy-theorem-suite", ok, f"500 instances, {elapsed:.0f}s")


def test_d1_coincidence():
    rng = np.random.default_rng(77)
    ok = True
    hits = 0
    for i in range(100):
        sigma = float(rng.uniform(0.2, 3.0))
        g = GaussianVec([-float(rng.uniform(0.0, 2.5)) * sigma], [[sigma**2]])
        b_rho = risk_spectral(g).value
        b_1 = risk_first_order(g).value
        b_d = risk_dth_order(g).value
        scale = max(b_rho, 1e-300)
        if abs(b_rho - b_1) > 1e-12 * scale or abs(b_1 - b_d) > 1e-12 * scale:
            ok = False
        mc = mc_risk(g, 10**5, 1000 + i)
        exact = risk_exact_1d(g).value
        if mc.ci_low <= exact <= mc.ci_high:
            hits += 1
    ok = ok and hits >= 93
    _report("d1-coincidence", ok, f"exact-in-CI {hits}/100")


def test_sector_lemma_oracle():
    start = time.time()
    rng = np.random.default_rng(5150)
    ok = True
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 9))
        r1 = float(rng.uniform(0.0, 1.5))
        r2 = r1 + float(rng.uniform(0.3, 1.5))
        theta = float(rng.uniform(0.3, math.pi / 2))
        axis = rng.normal(size=d)
        axis /= np.linalg.norm(axis)
        mc = mc_sector_probability(d, r1, r2, axis, theta, 10**7, 9000 + i)
        closed = 0.5 * sector_fraction(math.cos(theta), d) * (psi(r1, d) - psi(r2, d))
        pull = abs(mc.estimate - closed) / mc.ci_halfwidth
        worst = max(worst, pull)
        ok = ok and pull <= 5.0
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report("sector-lemma-oracle", ok, f"20 tuples, worst |err|/halfwidth {worst:.2f}, {elapsed:.0f}s")


def test_fig4_sweep_quick():
    start = time.time()
    dims = (1, 5, 10, 15, 20, 25)
    rows = run_sweep(dims, n_dists=100, beta=1e-3, mc_samples=10**5, seed=0)
    med = {(r["dim"], r["method"]): r["median"] for r in rows}
    ok = all(med[(d, "dth_order")] < 10 for d in dims)
    ratio_rho = med[(25, "spectral")] / med[(25, "dth_order")]
    ratio_1 = med[(25, "first_order")] / med[(25, "dth_order")]
    ok = ok and ratio_rho > 100 and ratio_1 > 100
    elapsed = time.time() - start
    ok = ok and elapsed < 1800
    _report(
        "fig4-sweep-quick",
        ok,
        "median gamma_d " + "/".join(f"{med[(d, 'dth_order')]:.2g}" for d in dims)
        + f", d=25 ratios rho={ratio_rho:.3g} first={ratio_1:.3g}, {elapsed:.0f}s",
    )


def test_special_function_accuracy():
    start = time.time()
    ok = True
    # chi-squared round-trips, through the tail psi(r, d) = 1 - F(r^2, d)
    # and its inverse; the level set is its own complement
    for d in (1, 2, 6, 15, 30):
        for p in (1e-8, 1e-3, 0.5, 0.999, 1 - 1e-8):
            ok = ok and abs(psi(psi_inv(p, d), d) - p) <= 1e-9
    # d = 2 closed forms, of the chi-squared CDF and of its tail
    for x in (0.1, 1.0, 4.0, 20.0):
        ok = ok and abs((1 - psi(math.sqrt(x), 2)) - (1 - math.exp(-x / 2))) <= 1e-12
        ok = ok and abs(psi(math.sqrt(x), 2) - math.exp(-x / 2)) <= 1e-12
    # arcsine identity for the regularized incomplete beta I_x(1/2, 1/2),
    # which sector_fraction(c, 2) evaluates at x = 1 - c^2
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        ok = ok and abs(sector_fraction(math.sqrt(1 - x), 2) - (2 / math.pi) * math.asin(math.sqrt(x))) <= 1e-9
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report("special-function-accuracy", ok, f"{elapsed * 1000:.0f}ms")


def test_sweep_determinism():
    cfg = dict(dims=(2, 4), n_dists=10, beta=1e-3, mc_samples=20000, seed=11)
    a = sweep_csv(run_sweep(**cfg))
    b = sweep_csv(run_sweep(**cfg))
    ok = a == b and len(a) > 0
    _report("sweep-determinism", ok, f"{len(a)} bytes, byte-identical={a == b}")
