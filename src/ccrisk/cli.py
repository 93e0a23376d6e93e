"""Benchmark command-line harness.

Subcommands:

- ``table1``: control-magnitude constraint comparison (risk + conservatism
  for the Monte-Carlo reference, the norm/spectral bound, the
  variance-ratio bound, and the first-order estimator).
- ``table2``: terminal box-constraint comparison at d = 6 (position only)
  and d = 12 (position and velocity).
- ``sweep``: conservatism-vs-dimension sweep over randomly generated
  distributions, emitting boxplot statistics per (dimension, method).
- ``check``: transcribe and risk-check a user-supplied Gaussian constraint.

All randomness is seeded; identical invocations produce byte-identical
output. Risks are percentages only in the emitted tables; everything
internal is a probability in [0, 1].

Reference sizing: the reference risk comes from directional simulation
(``risk.directional_risks``), and ``--mc-samples`` counts its directions,
drawn as antithetic pairs. Each direction contributes the exact chi-tail
mass beyond the point where its ray leaves the safe set, so the count need
not grow like 1/risk: at d = 1 (table1) every pair gives the exact risk,
and at table2's d = 6 risk of 6.7e-6 the default 1e7 directions reach a
relative standard error of about 0.3%.

Parallelism: the reference draws its pairs in fixed blocks with a Philox
stream each and runs the blocks on one thread per available core.
``conservatism.hierarchy_reports`` scores a batch in one reference call:
the sweep passes all of a dimension's instances, and table2 both its
sections. The blocks merge in order, so every output is the same on any
number of cores. A malformed flag value or ``check`` input exits 2, any
other uncaught error 1, each with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .conservatism import gamma_or_inf, hierarchy_report, hierarchy_reports
from .fixtures import DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, EarthMarsFixture, box_constraint_distribution
from .gaussian import GaussianVec
from .linalg import NotPositiveDefiniteError
from .risk import directional_risk, risk_first_order, risk_nakka_chung, risk_norm_spectral
from .special import psi_inv
from .transcription import METHODS

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

SWEEP_CSV_COLUMNS = [
    "dim",
    "method",
    "median",
    "q1",
    "q3",
    "whisker_lo",
    "whisker_hi",
    "n_rejected",
]


# ---------------------------------------------------------------------------
# Sweep configuration and instance generation
# ---------------------------------------------------------------------------

@dataclass
class SweepConfig:
    dims: tuple = tuple(range(1, 26))
    n_dists: int = 1000
    beta: float = 1e-3
    mc_samples: int = 100_000
    seed: int = 0
    quick: bool = False

    def __post_init__(self) -> None:
        if len(self.dims) == 0 or min(self.dims) < 1:
            raise ValueError("dims must be a nonempty list of positive ints")
        if self.n_dists < 1:
            raise ValueError("n_dists must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie strictly in (0, 1), got {self.beta}")
        if self.quick:
            self.n_dists = min(self.n_dists, 100)


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


def _box_stats(values) -> dict:
    """Median, quartiles, and 1.5-IQR whiskers of a sample (inf-tolerant)."""
    values = np.asarray(values, dtype=float)
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
    whisker_lo = float(np.min(in_lo)) if in_lo.size else q1
    whisker_hi = float(np.max(in_hi)) if in_hi.size else q3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "whisker_lo": whisker_lo,
        "whisker_hi": whisker_hi,
    }


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Conservatism sweep over dimensions; one record per (dim, method)."""
    rows = []
    for d in cfg.dims:
        gen_rng = np.random.default_rng(
            np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(d,)))
        )
        instances = []
        n_rejected = 0
        for _ in range(cfg.n_dists):
            g, rej = _generate_instance(d, cfg.beta, gen_rng)
            n_rejected += rej
            instances.append(g)
        # one batch per dimension, so the reference's blocks fill every core
        reports = hierarchy_reports(
            instances, cfg.mc_samples, [_sub_seed(cfg.seed, d, i) for i in range(cfg.n_dists)]
        )
        for method in reports[0].gamma:
            row = {"dim": d, "method": method, "n_rejected": n_rejected}
            row.update(_box_stats([r.gamma[method] for r in reports]))
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table reproductions
# ---------------------------------------------------------------------------

def _percent(value: float) -> float:
    return 100.0 * value


def run_table1(fixture: EarthMarsFixture, mc_samples: int, seed: int) -> dict:
    """Control-magnitude constraint comparison.

    The 1-D rows use the fixture's published scalar constraint
    distribution; the norm/spectral row works from the full control
    covariance. With mc_samples = 0 only the risks are reported.
    """
    g = fixture.control_constraint()
    rows = []
    ref = None
    if mc_samples > 0:
        ref = directional_risk(g, mc_samples, seed)
        rows.append({"method": "mc_true", "risk": ref.estimate, "conservatism": None})
    spectral = risk_norm_spectral(fixture.u0_mean, fixture.sigma_u0, fixture.u_max)
    for est in (spectral, risk_nakka_chung(g), risk_first_order(g)):
        gamma = None if ref is None else gamma_or_inf(est.value, ref.estimate)
        rows.append({"method": est.method, "risk": est.value, "conservatism": gamma})
    return {
        "table": "control_magnitude",
        "mc_samples": mc_samples,
        "seed": seed,
        "rows": rows,
    }


def run_table2(
    fixture: EarthMarsFixture,
    target_state,
    mc_samples: int,
    seed: int,
) -> dict:
    """Terminal box-constraint comparison at d = 6 and d = 12.

    Without an explicit target state a documented placeholder is used; the
    published risks are only reproducible with the true (unpublished)
    target, so placeholder runs demonstrate the ordering pattern, not the
    printed numbers.
    """
    target = DEFAULT_TARGET_STATE if target_state is None else np.asarray(target_state, float)
    default_used = target_state is None
    layout = ((True, 6), (False, 12))
    gs = [box_constraint_distribution(fixture, target, position_only) for position_only, _ in layout]
    # both sections in one batch, so the reference's blocks fill every core
    reports = hierarchy_reports(gs, mc_samples, [_sub_seed(seed, d) for _, d in layout])
    sections = []
    for (position_only, d), report in zip(layout, reports):
        rows = [{"method": "mc_true", "risk": report.beta_r.estimate, "conservatism": None}]
        rows += [
            {"method": m, "risk": e.value, "conservatism": report.gamma[m]}
            for m, e in report.estimates.items()
        ]
        sections.append(
            {
                "dimension": d,
                "position_only": position_only,
                "hierarchy_ok": report.hierarchy_ok,
                "rows": rows,
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

def run_check(
    payload: dict,
    mc_samples: int = 0,
    seed: int = 0,
) -> tuple[dict, int]:
    """Transcribe and risk-check one user-supplied constraint.

    Returns (report, exit_code): exit 1 when a requested risk estimator is
    undefined for the input (e.g. a positive mean component), 0 otherwise.
    Parse errors raise ValueError and are mapped to exit 2 by the CLI.
    """
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object")
    g = GaussianVec.from_dict(payload)
    if "beta" not in payload:
        raise ValueError('missing "beta"')
    try:
        beta = float(payload["beta"])
    except TypeError:
        raise ValueError(f'"beta" must be a number, got {payload["beta"]!r}') from None
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    # the default is the three multidimensional methods
    methods = payload.get("methods", list(METHODS)[:3])
    if not isinstance(methods, list) or not methods:
        raise ValueError('"methods" must be a nonempty list')
    verdicts = []
    estimates = []
    for m in methods:
        # a list or object entry is unhashable, so test the type first
        if not isinstance(m, str) or m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {tuple(k.value for k in METHODS)}")
        transcribe, risk = METHODS[m]
        verdicts.append(transcribe(g, beta))
        estimates.append(risk(g))

    report = {
        "beta": beta,
        "verdicts": [v.to_dict() for v in verdicts],
        "risk_estimates": [e.to_dict() for e in estimates],
    }
    if mc_samples > 0:
        report["conservatism"] = hierarchy_report(g, mc_samples, seed).to_dict() if g.mean_nonpositive else None
    code = EXIT_DOMAIN if any(not e.defined for e in estimates) else EXIT_OK
    return report, code


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def _sig2(x: float) -> str:
    """Two significant figures, for the percentage presentation columns."""
    if x == 0.0:
        return "0.0"
    return f"{x:.2g}"


def _table_csv(result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dimension", "method", "risk_percent", "conservatism", "mc_samples", "seed"])
    sections = result.get("sections") or [
        {"dimension": 1, "rows": result["rows"]}
    ]
    for section in sections:
        for row in section["rows"]:
            gamma = row["conservatism"]
            writer.writerow(
                [
                    section["dimension"],
                    row["method"],
                    _sig2(_percent(row["risk"])),
                    "" if gamma is None else ("inf" if math.isinf(gamma) else _sig2(gamma)),
                    result["mc_samples"],
                    result["seed"],
                ]
            )
    return buf.getvalue()


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in SWEEP_CSV_COLUMNS])
    return buf.getvalue()


def sweep_plot_data(rows: list[dict]) -> str:
    """Long-format (dim, method, statistic, value) records for external
    plotting tools."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dim", "method", "statistic", "value"])
    for row in rows:
        for stat in ("median", "q1", "q3", "whisker_lo", "whisker_hi"):
            writer.writerow([row["dim"], row["method"], stat, _fmt(row[stat])])
    return buf.getvalue()


def _dump_json(obj) -> str:
    def clean(o):
        if isinstance(o, float) and math.isinf(o):
            return "inf"
        if isinstance(o, dict):
            return {k: clean(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [clean(v) for v in o]
        return o

    return json.dumps(clean(obj), indent=2) + "\n"


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_dims(text: str) -> tuple:
    """Dimensions from a comma-separated list of dimensions and ranges lo..hi."""
    dims = []
    for part in filter(None, map(str.strip, text.split(","))):
        lo, _, hi = part.partition("..")
        try:
            span = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            span = range(0)
        if not span:
            raise ValueError(f'--dims: {part!r} is neither a dimension nor a range "lo..hi" with lo <= hi')
        dims.extend(span)
    return tuple(dims)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccrisk",
        description="Gaussian chance-constraint transcription and risk benchmark",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--mc-samples",
        type=int,
        default=None,
        help="directions of the directional-simulation reference, drawn as antithetic pairs "
        "(defaults: table1 1e6, quick 1e4; table2 1e7, quick 1e6; sweep 1e5; check --mc 1e6)",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--quick", action="store_true", help="reduced-size run")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="control-magnitude constraint comparison")

    p2 = sub.add_parser("table2", help="terminal box-constraint comparison")
    p2.add_argument(
        "--target-state",
        default=None,
        help="6 comma-separated target-state components (placeholder if omitted)",
    )

    ps = sub.add_parser("sweep", help="conservatism-vs-dimension sweep")
    ps.add_argument("--dims", default="1..25", help='dimensions, e.g. "1..25" or "1,5,10"')
    ps.add_argument("--n-dists", type=int, default=1000)
    ps.add_argument("--beta", type=float, default=1e-3)
    ps.add_argument("--emit-plot-data", default=None, help="also write long-format plot data here")

    pc = sub.add_parser("check", help="check a user-supplied constraint")
    pc.add_argument("input", nargs="?", default="-", help="JSON file ('-' for stdin)")
    pc.add_argument("--mc", action="store_true", help="add a Monte-Carlo conservatism report")

    return parser


# --mc-samples when it is not given: (full run, --quick run)
_MC_SAMPLES = {"table1": (10**6, 10**4), "table2": (10**7, 10**6), "sweep": (10**5, 10**5), "check": (10**6, 10**6)}


def _resolve_flags(args) -> None:
    """Check the flag values argparse passes on as typed, and complete or
    parse them in ``args``; ValueError names the bad one."""
    # every generator takes the seed as an unsigned 64-bit integer
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must lie in [0, 2**64), got {args.seed}")
    # check draws a reference only with --mc, and table1 at 0 gives its risk-only table
    no_reference = args.command == "check" and not args.mc
    least = 0 if no_reference or args.command == "table1" else 1
    if args.mc_samples is None:
        args.mc_samples = _MC_SAMPLES[args.command][args.quick]
    elif args.mc_samples < least:
        raise ValueError(f"--mc-samples must be at least {least}, got {args.mc_samples}")
    if no_reference:
        args.mc_samples = 0
    if args.command == "table2" and args.target_state is not None:
        try:
            target = [float(v) for v in args.target_state.split(",")]
        except ValueError:
            target = []
        if len(target) != 6 or not all(map(math.isfinite, target)):
            raise ValueError(f"--target-state needs 6 finite comma-separated numbers, got {args.target_state!r}")
        args.target_state = target
    if args.command == "sweep":
        dims = _parse_dims(args.dims)
        args.config = SweepConfig(dims, args.n_dists, args.beta, args.mc_samples, args.seed, args.quick)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _resolve_flags(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "table1":
            result = run_table1(DEFAULT_FIXTURE, args.mc_samples, args.seed)
            text = _dump_json(result) if args.format == "json" else _table_csv(result)
            _write_output(text, args.out)
        elif args.command == "table2":
            result = run_table2(DEFAULT_FIXTURE, args.target_state, args.mc_samples, args.seed)
            text = _dump_json(result) if args.format == "json" else _table_csv(result)
            _write_output(text, args.out)
        elif args.command == "sweep":
            rows = run_sweep(args.config)
            text = _dump_json(rows) if args.format == "json" else sweep_csv(rows)
            _write_output(text, args.out)
            if args.emit_plot_data:
                with open(args.emit_plot_data, "w") as fh:
                    fh.write(sweep_plot_data(rows))
        elif args.command == "check":
            if args.input == "-":
                raw = sys.stdin.read()
            else:
                with open(args.input) as fh:
                    raw = fh.read()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
                return EXIT_USAGE
            try:
                report, code = run_check(payload, mc_samples=args.mc_samples, seed=args.seed)
            except (ValueError, KeyError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            _write_output(_dump_json(report), args.out)
            return code
    except Exception as exc:
        # whatever escapes a subcommand, a worker thread's error included,
        # ends in one line; KeyboardInterrupt is no Exception and propagates
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK
