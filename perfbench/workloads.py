"""Operations of the three workloads, timed, checked and optionally traced.

A *round* is the fixed set of operations one workload repeats while a run
lasts; its operations are the ones counted in ``attempted`` and ``failed``.
The *probes* are reduced versions of the other workloads' operations, run a
fixed number of times so that every end-to-end metric is measured on every
workload; they are checked but not counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import ccrisk
import ccrisk.cli

from . import checks, inputs, oracles

WORKLOADS = ("estimate-stream", "sweep", "reference")
PROBE_REPS = {"estimate": 20, "sweep": 20, "table1": 15, "table2": 15, "check": 15}


class Recorder:
    """Timings, counts and check outcomes of the operations run so far."""

    def __init__(self) -> None:
        self.estimate_ns: list[list[int]] = []  # per-instance times, one list per pass over a stream
        self.times: dict[str, list[float]] = defaultdict(list)
        self.ref: dict[str, list[dict]] = defaultdict(list)
        self.sweeps: list[dict] = []
        self.total_ns = 0
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.unexpected: list[str] = []

    def merge(self, other: dict) -> None:
        self.estimate_ns += other["estimate_ns"]
        for k, v in other["times"].items():
            self.times[k] += v
        for k, v in other["ref"].items():
            self.ref[k] += v
        self.sweeps += other["sweeps"]
        self.unexpected += other["unexpected"]

    def to_dict(self) -> dict:
        """What ``merge`` takes from a probe process (probes count nothing)."""
        return {
            "estimate_ns": self.estimate_ns,
            "times": dict(self.times),
            "ref": dict(self.ref),
            "sweeps": self.sweeps,
            "unexpected": self.unexpected,
        }

    def outcome(self, where: str, known: list[str], other: list[str], counted: bool) -> None:
        """Record one operation's check result."""
        if counted:
            self.attempted += 1
            if known:
                self.failed += 1
                self.faults.update(known)
        elif known:
            other = known + other  # probes run no input on which a known fault shows
        if other:
            self.unexpected.append(f"{where}: {','.join(other)}")


def timed(rec: Recorder, tracer, root: str, fn, dim=None):
    """Run one operation, adding its wall time to the pass total; a root span
    surrounds it when the pass is traced."""
    idx = tracer.open(root, dim) if tracer is not None else None
    t0 = time.perf_counter_ns()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter_ns() - t0
        if idx is not None:
            tracer.close(idx)
    rec.total_ns += elapsed
    return result, elapsed


def _cli_main(args, stdin_text=None):
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = ccrisk.cli.main(list(args))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# estimate chain
# ---------------------------------------------------------------------------

def estimate_chain(inst, beta):
    """What ``ccrisk check`` does with its default methods, plus the scalar
    estimators and bounds at d = 1."""
    g = ccrisk.GaussianVec(inst.mean, inst.cov)
    verdicts = (
        ccrisk.transcribe_spectral_radius(g, beta),
        ccrisk.transcribe_first_order(g, beta),
        ccrisk.transcribe_dth_order(g, beta),
    )
    estimates = (ccrisk.risk_spectral(g), ccrisk.risk_first_order(g), ccrisk.risk_dth_order(g))
    scalar = None
    if g.dim == 1:
        var = float(g.cov[0, 0])
        scalar = (
            ccrisk.risk_exact_1d(g),
            ccrisk.risk_nakka_chung(g),
            ccrisk.bound_linear_1d(beta, var),
            ccrisk.bound_nakka_chung(beta, var),
        )
    return verdicts, estimates, scalar


class EstimateSet:
    """A list of raw instances with their independent true risks."""

    def __init__(self, instances) -> None:
        self.instances = instances
        self.truth = [
            oracles.independent_risk(inst.margins) if inst.independent or inst.dim == 1 else None
            for inst in instances
        ]

    def run(self, rec: Recorder, tracer, counted: bool, keep_times: bool) -> None:
        beta = inputs.BETA
        times = []
        if keep_times:
            rec.estimate_ns.append(times)
        for i, (inst, truth) in enumerate(zip(self.instances, self.truth)):
            (verdicts, estimates, scalar), ns = timed(
                rec, tracer, "estimate.instance", lambda: estimate_chain(inst, beta), inst.dim
            )
            times.append(ns)
            codes = checks.check_estimate(
                inst.dim,
                truth,
                beta,
                {v.method.value: v.satisfied for v in verdicts},
                {e.method: e.value for e in estimates},
                None if scalar is None else (
                    scalar[0].value, scalar[1].value, scalar[2], scalar[3], math.sqrt(float(inst.cov[0, 0]))
                ),
            )
            known, other = checks.classify_instance(inst.deep_tail, codes)
            rec.outcome(f"instance {i} d={inst.dim}", known, other, counted)


def warm_up(eset: EstimateSet) -> None:
    """One untimed, unchecked estimate chain per dimension, so lazy imports
    and first allocations are not timed."""
    seen = set()
    for inst in eset.instances:
        if inst.dim not in seen:
            seen.add(inst.dim)
            estimate_chain(inst, inputs.BETA)


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def run_sweep(rec: Recorder, tracer, args, full: bool, counted: bool) -> None:
    (code, text), ns = timed(rec, tracer, "cli.sweep", lambda: _cli_main(args))
    rec.times["sweep"].append(ns * 1e-9)
    n_dists = int(args[args.index("--n-dists") + 1]) if "--n-dists" in args else 100
    rec.sweeps.append({"csv": text, "n_dists": n_dists, "full": full})
    if code != 0:
        rec.outcome("sweep", [], [f"exit {code}"], counted)
        return
    for d, codes in checks.check_sweep(text, inputs.SWEEP_DIMS, full).items():
        known, other = checks.classify_sweep_row(d, codes)
        rec.outcome(f"sweep d={d}", known, other, counted)


def run_table(rec: Recorder, tracer, which: str, args, lite: bool, counted: bool) -> None:
    (code, text), ns = timed(rec, tracer, f"cli.{which}", lambda: _cli_main(args))
    rec.times[which].append(ns * 1e-9)
    if code != 0:
        rec.outcome(which, [], [f"exit {code}"], counted)
        return
    result = json.loads(text)
    codes = checks.check_table1(result, lite) if which == "table1" else checks.check_table2(result)
    rec.outcome(which, [], codes, counted)


class ReferenceSet:
    """The three ``check --mc`` instances with their independent true risks."""

    def __init__(self) -> None:
        self.payloads = inputs.check_payloads()
        p1, p6 = self.payloads["d1"][0], self.payloads["d6"][0]
        self.truth = {
            "d1": float(oracles.normal_tail(-p1["mean"][0] / math.sqrt(p1["cov"][0][0]))),
            "d6": oracles.block_risk(p6["mean"], p6["cov"]),
            "d25": oracles.equicorrelated_risk(inputs.EQUI_MARGIN, inputs.EQUI_RHO, inputs.EQUI_DIM),
        }

    def run(self, rec: Recorder, tracer, lite: bool, counted: bool) -> None:
        for name, (payload, home_n, lite_n) in self.payloads.items():
            n = lite_n if lite else home_n
            args = ["--seed", str(inputs.CHECK_SEED), "--mc-samples", str(n), "--format", "json", "check", "--mc", "-"]
            (code, text), ns = timed(rec, tracer, "cli.check", lambda: _cli_main(args, json.dumps(payload)))
            if code != 0:
                rec.outcome(f"check {name}", [], [f"exit {code}"], counted)
                continue
            report = json.loads(text)
            codes = checks.check_reference(report, self.truth[name], inputs.BETA)
            beta_r = report["conservatism"]["beta_r"] if report.get("conservatism") else None
            if beta_r is not None:
                rse = checks.relative_se(beta_r)
                rec.ref[name].append(
                    {
                        "seconds": ns * 1e-9,
                        "rse": rse,
                        "hits": int(round(beta_r["estimate"] * beta_r["n_samples"])),
                        "n": beta_r["n_samples"],
                    }
                )
            rec.outcome(f"check {name}", [], codes, counted)


# ---------------------------------------------------------------------------
# rounds and probes per workload
# ---------------------------------------------------------------------------

class Workload:
    """Inputs and oracles of one workload's round and of its probes, built
    on first use."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed

    @cached_property
    def stream(self) -> EstimateSet:
        return EstimateSet(inputs.estimate_stream(self.seed))

    @cached_property
    def probe_stream(self) -> EstimateSet:
        return EstimateSet(inputs.seeded_stream(self.seed))

    @cached_property
    def refs(self) -> ReferenceSet:
        return ReferenceSet()

    def warm_up(self) -> None:
        warm_up(self.stream if self.name == "estimate-stream" else self.probe_stream)
        if self.name == "sweep":
            # a small sweep whose largest Monte-Carlo arrays (1e5 x 25) let
            # the allocator settle; without it the first quick sweep of a
            # process ran about 7% slower. Only here, so that the other
            # workloads' peak memory does not include it.
            _cli_main(inputs.WARM_UP_SWEEP_ARGS)

    def round(self, rec: Recorder, tracer=None) -> None:
        if self.name == "estimate-stream":
            self.stream.run(rec, tracer, counted=True, keep_times=True)
        elif self.name == "sweep":
            run_sweep(rec, tracer, inputs.SWEEP_ARGS, full=True, counted=True)
        else:
            run_table(rec, tracer, "table1", inputs.TABLE1_ARGS, lite=False, counted=True)
            run_table(rec, tracer, "table2", inputs.TABLE2_ARGS, lite=False, counted=True)
            self.refs.run(rec, tracer, lite=False, counted=True)

    def probes(self, rec: Recorder, tracer=None, reps=None) -> None:
        """Every repetition of the probes, one after the other."""
        reps = reps or PROBE_REPS
        for rep in range(max(reps.values())):
            self.probe_rep(rec, rep, tracer, reps)

    def probe_rep(self, rec: Recorder, rep: int, tracer=None, reps=None) -> None:
        """Repetition ``rep`` of the other workloads' operations at reduced
        size, interleaved so that a slow spell on the machine does not land
        on one of them only."""
        reps = reps or PROBE_REPS
        if self.name != "estimate-stream" and rep < reps["estimate"]:
            self.probe_stream.run(rec, tracer, counted=False, keep_times=True)
        if self.name != "sweep" and rep < reps["sweep"]:
            run_sweep(rec, tracer, inputs.SWEEP_LITE_ARGS, full=False, counted=False)
        if self.name != "reference":
            if rep < reps["table1"]:
                run_table(rec, tracer, "table1", inputs.TABLE1_LITE_ARGS, lite=True, counted=False)
            if rep < reps["table2"]:
                run_table(rec, tracer, "table2", inputs.TABLE2_LITE_ARGS, lite=True, counted=False)
            if rep < reps["check"]:
                self.refs.run(rec, tracer, lite=True, counted=False)
