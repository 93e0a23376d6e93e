"""Correctness checks on the program's outputs.

Each check returns a list of failure codes (empty when the output is right).
The checks compare against the independent values of ``oracles`` or against
properties every correct implementation has; they never recompute a value
with the program itself.

Three program faults make some operations fail today (README.md, "Faults
counted as failed"). A failure is counted as one of them only on the inputs
where the fault shows; any other failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math

from .oracles import EXACT_RTOL, rel_close, scalar_backoff

# median gamma_d may fall below 1 by this much before the sweep row fails;
# with 100 draws of a reference resolved to ~10% the median moves by ~3%
SWEEP_GAMMA_TOL = 0.2
SWEEP_GAMMA_MAX = 10.0
SWEEP_D25_RATIO = 100.0
D1_RTOL = 1e-12
REFERENCE_HALFWIDTHS = 5.0

# check code -> fault, on deep-tail instances: risk.dth_order_value returns
# 1 - kept, which cancels; risk_exact_1d computes 1 - ndtr(-m/sigma)
_DEEP_TAIL_CODES = {"upper_bound_dth": "deep_tail_dth_order", "exact_1d": "deep_tail_exact_1d"}


def classify_instance(deep_tail: bool, codes: list[str]) -> tuple[list[str], list[str]]:
    """Split an instance's failure codes into known faults and the rest."""
    if not deep_tail:
        return [], list(codes)
    known = [_DEEP_TAIL_CODES[c] for c in codes if c in _DEEP_TAIL_CODES]
    return known, [c for c in codes if c not in _DEEP_TAIL_CODES]


def classify_sweep_row(dim: int, codes: list[str]) -> tuple[list[str], list[str]]:
    """At d = 1, cli._sweep_gamma shrinks zero-hit draws to the Wilson
    midpoint, so the median gamma reads ~0.2 where every estimator is exact."""
    if dim == 1 and codes == ["gamma_d_below_1"]:
        return ["sweep_d1_gamma"], []
    return [], list(codes)


# ---------------------------------------------------------------------------
# estimate chain
# ---------------------------------------------------------------------------

def check_estimate(dim, truth, beta, verdicts, estimates, scalar) -> list[str]:
    """Checks on one instance of the estimate chain.

    ``verdicts`` maps method -> satisfied for the three transcriptions,
    ``estimates`` maps method -> risk value, ``scalar`` holds the d = 1
    extras (exact risk, Nakka-Chung risk, the two backoffs and sigma) or is
    None. ``truth`` is the independent true risk, or None where there is no
    closed form.
    """
    codes = []
    b_rho, b_1, b_d = estimates["spectral"], estimates["first_order"], estimates["dth_order"]
    if not (b_d <= b_1 <= b_rho):
        codes.append("chain")
    for method, risk in (("spectral_radius", b_rho), ("first_order", b_1), ("dth_order", b_d)):
        if verdicts[method] != (risk <= beta):
            codes.append(f"verdict_{method}")
    if truth is not None:
        for name, risk in (("dth", b_d), ("first", b_1), ("spectral", b_rho)):
            if risk < truth:
                codes.append(f"upper_bound_{name}")
    if dim == 1:
        if not (rel_close(b_rho, b_1, D1_RTOL) and rel_close(b_1, b_d, D1_RTOL)):
            codes.append("d1_coincide")
        exact, nakka_chung, linear_backoff, nc_backoff, sigma = scalar
        if not abs(exact - truth) <= EXACT_RTOL * truth:
            codes.append("exact_1d")
        if nakka_chung < truth:
            codes.append("nakka_chung_bound")
        if not rel_close(linear_backoff, scalar_backoff(beta, sigma), D1_RTOL):
            codes.append("linear_backoff")
        if not rel_close(nc_backoff, math.sqrt((1.0 - beta) / beta) * sigma, D1_RTOL):
            codes.append("nakka_chung_backoff")
    return codes


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_medians(csv_text: str) -> dict:
    """{(dim, method): median} from the sweep CSV ('inf' parses as inf)."""
    return {
        (int(row["dim"]), row["method"]): float(row["median"])
        for row in csv.DictReader(io.StringIO(csv_text))
    }


def sweep_rejected(csv_text: str) -> int:
    """Rejected draws over all dimensions of a sweep (each row repeats its
    dimension's count)."""
    per_dim = {int(r["dim"]): int(r["n_rejected"]) for r in csv.DictReader(io.StringIO(csv_text))}
    return sum(per_dim.values())


def check_sweep(csv_text: str, dims, full: bool) -> dict:
    """Failure codes per dimension. ``full`` adds the accuracy checks that
    need the quick sweep's 100 draws of 1e5 reference samples each."""
    med = sweep_medians(csv_text)
    out = {}
    for d in dims:
        codes = []
        try:
            g_rho, g_1, g_d = (med[(d, m)] for m in ("spectral", "first_order", "dth_order"))
        except KeyError:
            out[d] = ["missing_row"]
            continue
        if not (g_d <= g_1 <= g_rho):
            codes.append("median_order")
        if full:
            if not g_d < SWEEP_GAMMA_MAX:
                codes.append("gamma_d_ge_10")
            if not g_d >= 1.0 - SWEEP_GAMMA_TOL:
                codes.append("gamma_d_below_1")
            if d == 25 and not (g_rho / g_d > SWEEP_D25_RATIO and g_1 / g_d > SWEEP_D25_RATIO):
                codes.append("d25_ratio")
        out[d] = codes
    return out


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _num(x):
    return math.inf if x == "inf" else x


def check_table1(result: dict, lite: bool) -> list[str]:
    """Published table1 data at the tolerances of the acceptance test
    ``test_table1_reproduction``; the reduced run checks the risks only."""
    rows = {r["method"]: r for r in result["rows"]}
    codes = []
    try:
        spectral = rows["norm_spectral"]["risk"]
        nc = rows["nakka_chung"]["risk"]
        first = rows["first_order"]["risk"]
    except KeyError:
        return ["missing_row"]
    if not (abs(spectral - 0.035) <= 0.001 and abs(nc - 0.042) <= 0.001 and 1.5e-6 <= first <= 2.0e-6):
        codes.append("published_risks")
    if lite:
        return codes
    mc = rows.get("mc_true", {}).get("risk")
    if mc is None or not 0.5e-6 <= mc <= 2.0e-6:
        codes.append("mc_range")
        return codes
    for method, expected in (("norm_spectral", 3.5e4), ("nakka_chung", 5.3e4), ("first_order", 1.8)):
        gamma = rows[method]["conservatism"]
        if gamma is None or not expected / 2 <= _num(gamma) <= expected * 2:
            codes.append(f"gamma_{method}")
    return codes


def check_table2(result: dict) -> list[str]:
    """The ordering pattern of table2 at d = 6 and d = 12."""
    codes = []
    for section in result["sections"]:
        d = section["dimension"]
        rows = {r["method"]: r for r in section["rows"]}
        b_rho, b_1, b_d = (rows[m]["risk"] for m in ("spectral", "first_order", "dth_order"))
        if not (b_d <= b_1 <= b_rho):
            codes.append(f"chain_d{d}")
        if not section["hierarchy_ok"]:
            codes.append(f"hierarchy_d{d}")
        if rows["mc_true"]["risk"] > 0.0:
            g_rho, g_1, g_d = (_num(rows[m]["conservatism"]) for m in ("spectral", "first_order", "dth_order"))
            if not g_d < g_1 < g_rho:
                codes.append(f"gamma_order_d{d}")
        if d == 12 and not (b_1 > 1 - 1e-6 and b_d < 1 - 1e-3):
            codes.append("d12_pattern")
    return codes


# ---------------------------------------------------------------------------
# reference risks
# ---------------------------------------------------------------------------

def relative_se(beta_r: dict) -> float:
    """(ci_high - ci_low) / (2 * 1.96 * estimate): inf with no hits."""
    if beta_r["estimate"] <= 0.0:
        return math.inf
    return (beta_r["ci_high"] - beta_r["ci_low"]) / (2 * 1.96 * beta_r["estimate"])


def check_reference(report: dict, truth: float, beta: float) -> list[str]:
    """``check --mc`` output against the independent true risk."""
    codes = []
    cons = report.get("conservatism")
    if not cons:
        return ["no_reference"]
    ref = cons["beta_r"]
    half = 0.5 * (ref["ci_high"] - ref["ci_low"])
    if not abs(ref["estimate"] - truth) <= REFERENCE_HALFWIDTHS * half:
        codes.append("reference_off")
    if ref["estimate"] <= 0.0:
        codes.append("zero_hits")
    est = {e["method"]: e["value"] for e in report["risk_estimates"]}
    if not est["dth_order"] <= est["first_order"] <= est["spectral"]:
        codes.append("chain")
    if est["dth_order"] < truth:
        codes.append("upper_bound_dth")
    for v in report["verdicts"]:
        risk = est["spectral" if v["method"] == "spectral_radius" else v["method"]]
        if v["satisfied"] != (risk <= beta):
            codes.append(f"verdict_{v['method']}")
    return codes
