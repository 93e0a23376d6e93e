"""The paper's experiments (``run_table1``, ``run_table2`` and the Fig. 4
conservatism sweep ``run_sweep``) and ``run_check``, as functions that
return records of plain values and result objects; ``ccrisk.cli`` parses
the flags, formats the records and picks the exit code.

All randomness is seeded, so identical arguments give identical records.
Risks are probabilities in [0, 1]; only the CLI's tables print percentages.

Reference sizing: every experiment draws its reference risk through
``conservatism.hierarchy_reports``, by ALOE importance sampling
(``risk.aloe_risks``). Each reference draws until its 95% interval has a
relative half-width of at most ``ref_tol`` (1% by default), looking after
1024, 2048, 4096, ... draws, and never draws more than ``mc_samples``. A
draw's value lies between mu / d and mu, mu the sum of the marginal tail
masses, so the count needed does not grow like 1/risk: at d = 1 (table1)
every draw gives the exact risk, and the quick sweep's references at risk
1e-3 stop after about 2,500 draws on average. The sweep gives every
reference of one dimension the same seed, so they read the same draws:
each reference's interval holds on its own, but their errors are
correlated across the dimension's instances.
"""

from __future__ import annotations

import itertools
import math
import reprlib

import numpy as np

from .conservatism import gamma_or_inf, hierarchy_report, hierarchy_reports
from .fixtures import DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, box_constraint_distribution
from .gaussian import GaussianVec
from .linalg import NotPositiveDefiniteError
from .risk import REF_TOL, risk_first_order, risk_nakka_chung, risk_norm_spectral
from .special import psi_inv
from .transcription import METHODS, MULTIDIMENSIONAL, Method


# ---------------------------------------------------------------------------
# Sweep instance generation
# ---------------------------------------------------------------------------

# Mean components are drawn from N(_MEAN_LOC, _MEAN_SCALE); the second
# parameter of this law, and of the covariance factor's, is a standard
# deviation.
_MEAN_LOC = -1.0
_MEAN_SCALE = 0.1


def _generate_instance(d, beta, rng) -> tuple[GaussianVec, int]:
    """Draw one random constraint distribution at dimension d.

    Mean components are normal around ``_MEAN_LOC``; the covariance is
    L @ L.T with lower-triangular L whose entries have scale
    ||mean||_1 / (d^{3/2} * Psi_1^{-1}(beta)). The scalar-law quantile in
    the denominator pins the per-component marginal tails near the beta
    level at every dimension, which is what keeps the real (Monte-Carlo)
    failure risk of order beta as d grows; a d-dof quantile there would
    instead shrink the tails exponentially with d. Draws with a positive
    mean component or a non-PD product are rejected and redrawn; the
    rejection count is returned for logging.
    """
    rejected = 0
    while True:
        mean = rng.normal(_MEAN_LOC, _MEAN_SCALE, size=d)
        if np.any(mean > 0.0):
            rejected += 1
            continue
        l_scale = float(np.sum(np.abs(mean))) / (d**1.5 * psi_inv(beta, 1))
        L = np.tril(rng.normal(0.0, l_scale, size=(d, d)))
        try:
            g = GaussianVec(mean, L @ L.T)
        except NotPositiveDefiniteError:
            rejected += 1
            continue
        return g, rejected


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1, dtype=np.uint64)[0])


_BOX_STATS = ("median", "q1", "q3", "whisker_lo", "whisker_hi")


def _box_stats(values) -> dict:
    """Median, quartiles, and 1.5-IQR whiskers of a sample (inf-tolerant),
    leaving out undefined (None) values; all None when none is left. The
    whiskers never end inside the box: whisker_lo <= q1 and q3 <= whisker_hi."""
    values = np.array([v for v in values if v is not None], dtype=float)
    if not values.size:
        return dict.fromkeys(_BOX_STATS)
    if not np.isfinite(values).any():
        q1 = med = q3 = math.inf
    else:
        # percentiles over the full sample; a quartile interpolated between
        # two infs is nan, and any non-finite quartile is reported as inf.
        # A quartile that falls on a sample takes it as it is: interpolating
        # toward an inf neighbour with weight 0 would give x + inf * 0 = nan.
        med = float(np.median(values))
        pos = np.array([0.25, 0.75]) * (values.size - 1)
        k = pos.astype(int)
        with np.errstate(invalid="ignore"):
            q = np.where(pos == k, np.sort(values)[k], np.percentile(values, [25, 75]))
        q1, q3 = (float(x) if math.isfinite(x) else math.inf for x in q)
    iqr = q3 - q1 if math.isfinite(q3 - q1) else math.inf
    lo_cut, hi_cut = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    in_lo = values[values >= lo_cut] if math.isfinite(lo_cut) else values
    in_hi = values[values <= hi_cut]
    # clamped to the quartiles, as Matplotlib's boxplot_stats does: a
    # quartile interpolated between two samples can lie beyond every sample
    # inside the fence
    whisker_lo = min(float(np.min(in_lo)), q1) if in_lo.size else q1
    whisker_hi = max(float(np.max(in_hi)), q3) if in_hi.size else q3
    return dict(zip(_BOX_STATS, (med, q1, q3, whisker_lo, whisker_hi)))


# instances whose references the sweep draws in one batch, cut in order of
# dimension and distribution: the full sweep's one dimension. Each round of
# the reference's blocks then spans many instances, and memory stays bounded.
_SWEEP_BATCH = 1000


def run_sweep(dims, n_dists: int, beta: float, mc_samples: int, seed: int, ref_tol: float = REF_TOL) -> list[dict]:
    """Conservatism sweep over dimensions; one record per (dim, method).

    Each dimension has its own stream of instances and one reference seed,
    ``_sub_seed(seed, d)``, shared by all of its references (common random
    numbers): ``risk.aloe_risks`` draws each of their blocks once for all of
    them. Each reference's 95% interval holds on its own, but their errors
    are correlated across the dimension's instances."""
    gammas, n_rejected = {d: [] for d in dims}, dict.fromkeys(dims, 0)
    # (dimension, distribution, rejections, reference seed) of each instance
    # in order, drawn as the batches need them
    rngs = {d: np.random.default_rng(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(d,)))) for d in dims}
    ref_seeds = {d: _sub_seed(seed, d) for d in dims}
    instances = ((d, *_generate_instance(d, beta, rngs[d]), ref_seeds[d]) for d in dims for _ in range(n_dists))
    while batch := list(itertools.islice(instances, _SWEEP_BATCH)):
        ds, gs, rejected, seeds = zip(*batch)
        for d, rej, report in zip(ds, rejected, hierarchy_reports(gs, mc_samples, seeds, ref_tol)):
            gammas[d].append(report.gamma)
            n_rejected[d] += rej
    rows = []
    for d in dims:
        for method in gammas[d][0]:
            row = {"dim": d, "method": method, "n_rejected": n_rejected[d]}
            row.update(_box_stats([gamma[method] for gamma in gammas[d]]))
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table reproductions
# ---------------------------------------------------------------------------

def _rows(ref, estimates) -> list[dict]:
    """A table's rows: the reference's ``mc_true`` row unless ``ref`` is
    None, then each ``RiskEstimate`` with its conservatism against it."""
    rows = [] if ref is None else [{"method": "mc_true", "risk": ref.estimate, "conservatism": None}]
    for e in estimates:
        gamma = None if ref is None else gamma_or_inf(e.value, ref.estimate)
        rows.append({"method": e.method, "risk": e.value, "conservatism": gamma})
    return rows


def run_table1(mc_samples: int, seed: int, ref_tol: float = REF_TOL) -> dict:
    """Control-magnitude constraint comparison on ``DEFAULT_FIXTURE``.

    The 1-D rows use the fixture's published scalar constraint
    distribution; the norm/spectral row works from the full control
    covariance. With mc_samples = 0 only the risks are reported.
    """
    g = DEFAULT_FIXTURE.control_constraint()
    ref = hierarchy_report(g, mc_samples, seed, ref_tol).beta_r if mc_samples > 0 else None
    spectral = risk_norm_spectral(DEFAULT_FIXTURE.u0_mean, DEFAULT_FIXTURE.sigma_u0, DEFAULT_FIXTURE.u_max)
    rows = _rows(ref, (spectral, risk_nakka_chung(g), risk_first_order(g)))
    return {
        "table": "control_magnitude",
        "mc_samples": mc_samples,
        "seed": seed,
        "rows": rows,
    }


def run_table2(target_state, mc_samples: int, seed: int, ref_tol: float = REF_TOL) -> dict:
    """Terminal box-constraint comparison at d = 6 and d = 12 on
    ``DEFAULT_FIXTURE``.

    Without an explicit target state a documented placeholder is used; the
    published risks are only reproducible with the true (unpublished)
    target, so placeholder runs demonstrate the ordering pattern, not the
    printed numbers.
    """
    target = DEFAULT_TARGET_STATE if target_state is None else np.asarray(target_state, float)
    default_used = target_state is None
    layout = ((True, 6), (False, 12))
    gs = [box_constraint_distribution(DEFAULT_FIXTURE, target, position_only) for position_only, _ in layout]
    # both sections in one batch, so the reference's blocks fill every core
    reports = hierarchy_reports(gs, mc_samples, [_sub_seed(seed, d) for _, d in layout], ref_tol)
    sections = []
    for (position_only, d), report in zip(layout, reports):
        sections.append(
            {
                "dimension": d,
                "position_only": position_only,
                "hierarchy_ok": report.hierarchy_ok,
                "rows": _rows(report.beta_r, report.estimates.values()),
            }
        )
    return {
        "table": "terminal_box",
        "mc_samples": mc_samples,
        "seed": seed,
        "target_state": list(map(float, target)),
        "target_is_placeholder": default_used,
        "sections": sections,
    }


# ---------------------------------------------------------------------------
# Generic check mode
# ---------------------------------------------------------------------------

def _numbers(payload: dict, key: str, scalar: bool = False) -> np.ndarray:
    """``payload[key]`` as a float array, 0-d when ``scalar``; ValueError
    unless it is a JSON number or nested lists of them, which numpy alone
    would not ensure: it reads "-3" as -3 and true as 1. A loop, not
    recursion: the nesting depth comes from the input. The message shows a
    shortened value."""
    if key not in payload:
        raise ValueError(f'missing "{key}"')
    value = payload[key]
    try:
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, (list, tuple)):
                stack.extend(item)
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise TypeError
        # OverflowError: an integer too large for a double; ValueError: ragged lists
        array = np.asarray(value, dtype=float)
        if scalar and array.ndim:
            raise TypeError
        return array
    except (TypeError, OverflowError, ValueError):
        what = "a number" if scalar else "an array of numbers"
        raise ValueError(f'"{key}" must be {what}, got {reprlib.repr(value)}') from None


def run_check(payload: dict, mc_samples: int = 0, seed: int = 0, ref_tol: float = REF_TOL) -> dict:
    """Transcribe and risk-check one user-supplied constraint.

    ``payload`` is the decoded ``check`` input: ``mean`` and ``cov`` (JSON
    numbers or nested lists of them), ``beta`` (a number in (0, 1)) and an
    optional nonempty ``methods`` list of ``Method`` names, by default
    ``MULTIDIMENSIONAL``, the others for d = 1 only. Every input is checked
    before any method runs; malformed input raises ValueError.

    Returns the report: ``beta``, the ``TranscriptionVerdict`` and
    ``RiskEstimate`` of each requested method, and with ``mc_samples`` > 0
    the ``ConservatismReport`` (None when a mean component is positive).
    An estimate undefined for the input is reported, not raised.
    """
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object")
    g = GaussianVec(_numbers(payload, "mean"), _numbers(payload, "cov"))
    beta = float(_numbers(payload, "beta", scalar=True))
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    methods = payload.get("methods", list(MULTIDIMENSIONAL))
    if not isinstance(methods, list) or not methods:
        raise ValueError('"methods" must be a nonempty list')
    for m in methods:
        # a list or object entry is unhashable, so test the type first
        if not isinstance(m, str) or m not in METHODS:
            raise ValueError(f"unknown method {reprlib.repr(m)}; choose from {tuple(k.value for k in METHODS)}")
    scalar_only = [Method(m).value for m in methods if m not in MULTIDIMENSIONAL]
    if scalar_only and g.dim != 1:
        raise ValueError(f"method {scalar_only[0]!r} only applies to scalar constraints")
    verdicts = []
    estimates = []
    for m in methods:
        transcribe, risk = METHODS[m]
        verdicts.append(transcribe(g, beta))
        estimates.append(risk(g))

    report = {"beta": beta, "verdicts": verdicts, "risk_estimates": estimates}
    if mc_samples > 0:
        report["conservatism"] = hierarchy_report(g, mc_samples, seed, ref_tol) if g.mean_nonpositive else None
    return report
