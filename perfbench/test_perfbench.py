"""Self-tests of the benchmark: every correctness check rejects a planted
wrong value, the oracles agree with each other where their domains meet,
and the printed metric names are the ones BENCHMARK.json declares.

Run from the repository root with ``python3 -m pytest perfbench``; they are
outside the package test suite's ``testpaths``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, oracles

ROOT = Path(__file__).resolve().parent.parent
BETA = 1e-3


# ---------------------------------------------------------------------------
# planted wrong values
# ---------------------------------------------------------------------------

def _estimate_codes(b_d, margins=(3.0, 3.5)):
    truth = oracles.independent_risk(margins)
    # psi(r_min, 2) = exp(-r^2/2) bounds the true risk from above
    b_1 = math.exp(-0.5 * min(margins) ** 2)
    estimates = {"spectral": min(1.0, 2 * b_1), "first_order": b_1, "dth_order": b_d}
    verdicts = {"spectral_radius": estimates["spectral"] <= BETA, "first_order": b_1 <= BETA, "dth_order": b_d <= BETA}
    return truth, checks.check_estimate(2, truth, BETA, verdicts, estimates, None)


def test_dth_order_below_true_risk_is_rejected():
    truth, codes = _estimate_codes(b_d=1.5 * oracles.independent_risk((3.0, 3.5)))
    assert codes == []
    _, codes = _estimate_codes(b_d=0.5 * truth)
    assert "upper_bound_dth" in codes


def test_deep_tail_failure_counts_as_known_fault_only_in_the_tail():
    assert checks.classify_instance(True, ["upper_bound_dth"]) == (["deep_tail_dth_order"], [])
    assert checks.classify_instance(False, ["upper_bound_dth"]) == ([], ["upper_bound_dth"])
    assert checks.classify_instance(True, ["chain"]) == ([], ["chain"])


def test_exact_scalar_risk_off_by_cancellation_is_rejected():
    r, sigma = 2.5, 0.3
    truth = float(oracles.normal_tail(r))
    b = math.erfc(r / math.sqrt(2))  # psi(r, 1) = P(|Z| > r)
    scalar = [truth, 1 / (1 + r * r), oracles.scalar_backoff(BETA, sigma), math.sqrt((1 - BETA) / BETA) * sigma, sigma]
    args = (1, truth, BETA, {"spectral_radius": False, "first_order": False, "dth_order": False},
            {"spectral": b, "first_order": b, "dth_order": b})
    assert checks.check_estimate(*args, tuple(scalar)) == []
    scalar[0] = truth * (1 + 1e-10)
    assert checks.check_estimate(*args, tuple(scalar)) == ["exact_1d"]


def _table1(mc):
    rows = [("mc_true", mc), ("norm_spectral", 0.0345), ("nakka_chung", 0.0419), ("first_order", 1.73e-6)]
    return {
        "rows": [
            {"method": m, "risk": r, "conservatism": None if m == "mc_true" or mc == 0 else r / mc}
            for m, r in rows
        ]
    }


def test_table1_reference_outside_published_range_is_rejected():
    assert checks.check_table1(_table1(1.0e-6), lite=False) == []
    assert "mc_range" in checks.check_table1(_table1(3.0e-6), lite=False)
    assert "mc_range" in checks.check_table1(_table1(0.0), lite=False)


def _sweep_csv(swap_dim=None):
    lines = ["dim,method,median,q1,q3,whisker_lo,whisker_hi,n_rejected"]
    for d in (1, 5, 10, 15, 20, 25):
        med = {"spectral": 10.0 ** (d / 4 + 1), "first_order": 10.0 ** (d / 8 + 1), "dth_order": 1.5}
        if d == swap_dim:
            med["first_order"], med["dth_order"] = med["dth_order"], med["first_order"]
        for m, v in med.items():
            lines.append(f"{d},{m},{v!r},{v},{v},{v},{v},0")
    return "\n".join(lines) + "\n"


def test_swapped_sweep_medians_are_rejected():
    dims = (1, 5, 10, 15, 20, 25)
    assert all(codes == [] for codes in checks.check_sweep(_sweep_csv(), dims, full=True).values())
    bad = checks.check_sweep(_sweep_csv(swap_dim=10), dims, full=True)
    assert "median_order" in bad[10]
    assert all(codes == [] for d, codes in bad.items() if d != 10)


def _check_report(estimate, half):
    return {
        "verdicts": [
            {"method": "spectral_radius", "satisfied": False},
            {"method": "first_order", "satisfied": False},
            {"method": "dth_order", "satisfied": False},
        ],
        "risk_estimates": [
            {"method": "spectral", "value": 0.9},
            {"method": "first_order", "value": 0.5},
            {"method": "dth_order", "value": 0.01},
        ],
        "conservatism": {"beta_r": {"estimate": estimate, "ci_low": estimate - half, "ci_high": estimate + half}},
    }


def test_reference_interval_missing_the_closed_form_is_rejected():
    truth, half = 1.0e-3, 1.0e-4
    assert checks.check_reference(_check_report(truth + 4.9 * half, half), truth, BETA) == []
    assert "reference_off" in checks.check_reference(_check_report(truth + 5.1 * half, half), truth, BETA)
    assert "reference_off" in checks.check_reference(_check_report(truth - 5.1 * half, half), truth, BETA)


def test_relative_se_reads_the_interval():
    beta_r = {"estimate": 1e-3, "ci_low": 1e-3 - 1.96e-4, "ci_high": 1e-3 + 1.96e-4}
    assert checks.relative_se(beta_r) == pytest.approx(0.1)
    assert checks.relative_se({"estimate": 0.0, "ci_low": 0.0, "ci_high": 1e-5}) == math.inf


# ---------------------------------------------------------------------------
# oracles against each other
# ---------------------------------------------------------------------------

def test_block_risk_of_a_diagonal_covariance_is_the_product_form():
    sigma = np.array([0.5, 2.0, 1.5])
    r = np.array([2.0, 2.5, 3.0])
    got = oracles.block_risk(-r * sigma, np.diag(sigma**2))
    assert got == pytest.approx(oracles.independent_risk(r), rel=1e-12)


def test_block_risk_of_a_correlated_pair_matches_the_bivariate_integral():
    rho, r = 0.6, np.array([2.0, 2.5])
    got = oracles.block_risk(-r, np.array([[1.0, rho], [rho, 1.0]]))
    # P(Z1 > r1 or Z2 > r2) = 1 - int phi(z) Phi((r2 - rho z)/sqrt(1-rho^2)) over z < r1
    import mpmath as mp

    ok = mp.quad(lambda z: mp.npdf(z) * mp.ncdf((r[1] - rho * z) / mp.sqrt(1 - rho**2)), [-mp.inf, r[0]])
    assert got == pytest.approx(float(1 - ok), rel=1e-7)


def test_equicorrelated_risk_at_zero_correlation_is_the_product_form():
    got = oracles.equicorrelated_risk(3.0, 1e-12, 5)
    assert got == pytest.approx(oracles.independent_risk([3.0] * 5), rel=1e-6)


def test_independent_risk_keeps_its_digits_in_the_deep_tail():
    assert oracles.independent_risk([10.0]) == pytest.approx(7.61985302416047e-24, rel=1e-12)


# ---------------------------------------------------------------------------
# end-to-end statistics
# ---------------------------------------------------------------------------

def test_stalls_in_some_repeats_do_not_move_end_to_end_times():
    from types import SimpleNamespace

    from perfbench import metrics

    base = np.linspace(100e3, 1100e3, 1000)  # ns per instance
    passes = [base.copy() for _ in range(5)]
    passes[1] *= 2.0  # a pass run in a slow spell of the machine
    passes[3][-50:] *= 3.0  # a stall on the slowest instances of another
    times = {"sweep": [10.0, 14.0], "table1": [1.0, 1.3, 1.1], "table2": [2.0, 2.5]}
    ref = {name: [{"seconds": 1.0, "rse": 0.1}, {"seconds": 1.8, "rse": 0.1}] for name in ("d1", "d6", "d25")}
    rec = SimpleNamespace(estimate_ns=[p.tolist() for p in passes], times=times, ref=ref)
    got = metrics.end_to_end(rec, [0.2, 0.1, 0.3], 100.0)
    assert got["estimate_p50_us"] == pytest.approx(np.percentile(base, 50) / 1e3)
    assert got["estimate_p99_us"] == pytest.approx(np.percentile(base, 99) / 1e3)
    assert got["estimate_per_s"] == pytest.approx(base.size / (base.sum() * 1e-9))
    assert (got["sweep_s"], got["table1_s"], got["table2_s"]) == (10.0, 1.0, 2.0)
    assert got["ref_s_at_rse10.d6"] == pytest.approx(1.0)
    assert got["setup_s"] == 0.2


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------

def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "estimate-stream", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[section])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
