"""Command line: ``ccrisk [global flags] {table1,table2,sweep,check}``.

- ``table1``: control-magnitude constraint comparison (risk + conservatism
  for the Monte-Carlo reference, the norm/spectral bound, the
  variance-ratio bound, and the first-order estimator).
- ``table2``: terminal box-constraint comparison at d = 6 (position only)
  and d = 12 (position and velocity).
- ``sweep``: conservatism-vs-dimension sweep over randomly generated
  distributions, emitting boxplot statistics per (dimension, method).
- ``check``: transcribe and risk-check a user-supplied Gaussian constraint.

The experiments themselves live in ``ccrisk.experiments``; this module
alone decides how their results are printed (the CSV and JSON shapes) and
how a run exits. It decodes the ``check`` input's JSON, and
``experiments.run_check`` alone reads the decoded payload.
Exit codes: 0 ok; 2 for an unknown flag, a missing subcommand, a malformed
flag value (a ``--target-state`` with a zero component included), a
missing input file, an output path that is a directory or lies in a
missing one, ``--out`` and ``--emit-plot-data`` naming one file, or
malformed ``check`` input (JSON nested too deeply to decode included),
rejected before any work starts; 1 when an estimator is undefined for the
``check`` input, or for any other uncaught error. Each error, argparse's
own included, prints one ``error:`` line, which shows a shortened copy of
an offending input value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .experiments import run_check, run_sweep, run_table1, run_table2
from .risk import REF_TOL

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


def _csv(header: list, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


def _table_csv(result: dict) -> str:
    sections = result.get("sections") or [{"dimension": 1, "rows": result["rows"]}]
    return _csv(
        ["dimension", "method", "risk_percent", "conservatism", "mc_samples", "seed"],
        (
            [
                section["dimension"],
                row["method"],
                # the tables print risks as percentages
                _sig2(100.0 * row["risk"]),
                "" if row["conservatism"] is None else _sig2(row["conservatism"]),
                result["mc_samples"],
                result["seed"],
            ]
            for section in sections
            for row in section["rows"]
        ),
    )


def sweep_csv(rows: list[dict]) -> str:
    return _csv(SWEEP_CSV_COLUMNS, ([_fmt(row[c]) for c in SWEEP_CSV_COLUMNS] for row in rows))


def sweep_plot_data(rows: list[dict]) -> str:
    """Long-format (dim, method, statistic, value) records for external
    plotting tools."""
    return _csv(
        ["dim", "method", "statistic", "value"],
        (
            [row["dim"], row["method"], stat, _fmt(row[stat])]
            for row in rows
            for stat in ("median", "q1", "q3", "whisker_lo", "whisker_hi")
        ),
    )


def _dump_json(obj) -> str:
    """JSON text of a record: a result dataclass as an object of its fields
    in declaration order, an array as a list, and +-inf as "inf"; a NaN
    raises ValueError, as it has no JSON form."""

    def clean(o):
        if isinstance(o, float) and math.isinf(o):
            return "inf"
        if dataclasses.is_dataclass(o):
            o = {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
        elif isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, dict):
            return {k: clean(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [clean(v) for v in o]
        return o

    return json.dumps(clean(obj), indent=2, allow_nan=False) + "\n"


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
        lo, sep, hi = part.partition("..")
        try:
            span = range(int(lo), int(hi if sep else lo) + 1)
        except ValueError:
            span = range(0)
        if not span:
            raise ValueError(f'--dims: {part!r} is neither a dimension nor a range "lo..hi" with lo <= hi')
        # a repeated dimension would rerun with the same seeds and repeat its rows
        repeated = sorted(set(dims).intersection(span))
        if repeated:
            raise ValueError(f"--dims: {part!r} repeats dimension {repeated[0]}")
        dims.extend(span)
    return tuple(dims)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, for ``main`` to
    print as one ``error:`` line, without the usage block; the subcommand
    parsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ccrisk",
        description="Gaussian chance-constraint transcription and risk benchmark",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--mc-samples",
        type=int,
        default=None,
        help="cap on ALOE draws per reference risk (default 1e5 for sweep, 1e6 otherwise)",
    )
    parser.add_argument(
        "--ref-tol",
        type=float,
        default=REF_TOL,
        help="relative half-width of its 95%% interval at which a reference risk stops drawing, "
        "below the --mc-samples cap; 0 draws to the cap (default %(default)s)",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--quick", action="store_true", help="cap the sweep at 100 distributions per dimension")
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
        # the cap also sets the looks that share the error level, so the
        # sweep's many small references keep the lower one
        args.mc_samples = 10**5 if args.command == "sweep" else 10**6
    elif args.mc_samples < least:
        raise ValueError(f"--mc-samples must be at least {least}, got {args.mc_samples}")
    if no_reference:
        args.mc_samples = 0
    if not 0.0 <= args.ref_tol < 1.0:
        raise ValueError(f"--ref-tol must lie in [0, 1), got {args.ref_tol}")
    if args.command == "table2" and args.target_state is not None:
        try:
            target = [float(v) for v in args.target_state.split(",")]
        except ValueError:
            target = []
        # the box tolerance is relative to each component, so none may be 0
        if len(target) != 6 or not all(math.isfinite(v) and v != 0.0 for v in target):
            raise ValueError(f"--target-state needs 6 finite nonzero comma-separated numbers, got {args.target_state!r}")
        args.target_state = target
    if args.command == "sweep":
        args.dims = _parse_dims(args.dims)
        if not args.dims or min(args.dims) < 1:
            raise ValueError("dims must be a nonempty list of positive ints")
        if args.n_dists < 1:
            raise ValueError("n_dists must be >= 1")
        if not 0.0 < args.beta < 1.0:
            raise ValueError(f"beta must lie strictly in (0, 1), got {args.beta}")
        if args.quick:
            args.n_dists = min(args.n_dists, 100)
    # an unwritable path would only show once the run is done
    out, plot = args.out, getattr(args, "emit_plot_data", None)
    for flag, path in (("--out", out), ("--emit-plot-data", plot)):
        if path and not Path(path).parent.is_dir():
            raise ValueError(f"{flag}: no directory for {path!r}")
        if path and Path(path).is_dir():
            raise ValueError(f"{flag}: {path!r} is a directory")
    # the plot data would overwrite the sweep's CSV
    if out and plot and Path(out).resolve() == Path(plot).resolve():
        raise ValueError(f"--out and --emit-plot-data name the same file {out!r}")
    if args.command == "check":
        try:
            raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {args.input!r}: {exc.strerror}") from None
        try:
            args.payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError("invalid JSON: arrays or objects nested too deeply to decode") from None


def main(argv=None) -> int:
    # a ValueError from the flags or from check's input is a usage error;
    # from a table or the sweep it is a domain error
    usage_errors = (ValueError,)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return EXIT_OK  # argparse exits only after printing the help
        _resolve_flags(args)
        if args.command == "check":
            report = run_check(args.payload, args.mc_samples, args.seed, args.ref_tol)
            _write_output(_dump_json(report), args.out)
            # a requested estimator undefined for the input, e.g. at a positive mean component
            return EXIT_DOMAIN if any(not e.defined for e in report["risk_estimates"]) else EXIT_OK
        usage_errors = ()
        if args.command == "sweep":
            rows = run_sweep(args.dims, args.n_dists, args.beta, args.mc_samples, args.seed, args.ref_tol)
            _write_output(_dump_json(rows) if args.format == "json" else sweep_csv(rows), args.out)
            if args.emit_plot_data:
                _write_output(sweep_plot_data(rows), args.emit_plot_data)
        else:
            if args.command == "table1":
                result = run_table1(args.mc_samples, args.seed, args.ref_tol)
            else:
                result = run_table2(args.target_state, args.mc_samples, args.seed, args.ref_tol)
            _write_output(_dump_json(result) if args.format == "json" else _table_csv(result), args.out)
    except Exception as exc:
        # whatever escapes, a worker thread's error included, ends in one
        # line; KeyboardInterrupt is no Exception and propagates
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, usage_errors) else EXIT_DOMAIN
    return EXIT_OK
