"""End-to-end and per-layer metric values from recorded operations and spans."""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import inputs
from .checks import sweep_rejected
from .spans import LAYERS, SpanTable, layer_of

REF_RSE = 0.1
MC_DIMS = (1, 5, 6, 10, 12, 15, 20, 25)
SECTOR_DIMS = tuple(d for d in inputs.STREAM_DIMS if d >= 2)
PER_CALL = (
    "linalg.cholesky_lower",
    "gaussian.GaussianVec",
    "gaussian.signed_mahalanobis",
    "risk.risk_spectral",
    "risk.risk_first_order",
    "risk.risk_dth_order",
    "transcription.transcribe_spectral_radius",
    "transcription.transcribe_first_order",
    "transcription.transcribe_dth_order",
)
CLI_COMMANDS = ("sweep", "table1", "table2", "check")


def ref_cost(record: dict) -> float:
    """Wall time scaled to the samples a relative standard error of 10%
    would need: seconds * (rse / 0.1)^2."""
    return record["seconds"] * (record["rse"] / REF_RSE) ** 2


def end_to_end(rec, setup_s: list[float], peak_rss_mb: float) -> dict:
    """Every timing is the fastest of its repeats within the run; set-up is
    the median over the fresh interpreters.

    On a shared host another tenant's load only ever lengthens a time, by
    close to twice for seconds at a stretch; the fastest of repeats spread
    over the run moves far less. Every estimate pass runs the
    same stream of at least 1000 instances; the percentiles are taken over
    the instances' fastest times, so the 99th has ten instances beyond it.
    """
    per_instance = np.asarray(rec.estimate_ns, dtype=float).min(axis=0)
    out = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "estimate_per_s": per_instance.size / (per_instance.sum() * 1e-9),
        "estimate_p50_us": float(np.percentile(per_instance, 50)) / 1e3,
        "estimate_p99_us": float(np.percentile(per_instance, 99)) / 1e3,
        "sweep_s": min(rec.times["sweep"]),
        "table1_s": min(rec.times["table1"]),
        "table2_s": min(rec.times["table2"]),
    }
    for name in ("d1", "d6", "d25"):
        out[f"ref_s_at_rse10.{name}"] = min(ref_cost(r) for r in rec.ref[name])
    return out


def _median_us(values) -> float:
    return float(np.median(values)) / 1e3 if values else 0.0


def time_special(instances, reps: int = 3) -> dict:
    """Median time of one scalar call of each special function, on the
    arguments the estimators would pass for these instances."""
    from ccrisk import special

    beta = inputs.BETA
    calls = {"psi": [], "psi_inv": [], "sector_fraction": []}
    for _ in range(reps):
        for inst in instances:
            r = np.sort(inst.margins)
            d = inst.dim
            cases = [("psi", special.psi, (float(r[0]), d)), ("psi_inv", special.psi_inv, (beta, d))]
            if d >= 2:
                cases.append(("sector_fraction", special.sector_fraction, (float(r[0] / r[-1]), d)))
            for key, fn, args in cases:
                t0 = time.perf_counter_ns()
                fn(*args)
                calls[key].append(time.perf_counter_ns() - t0)
    return {f"special.{k}_us": _median_us(v) for k, v in calls.items()}


def per_layer(passes, import_s: list[float], special_us: dict) -> dict:
    """Per-layer metrics from traced passes.

    ``passes`` holds (untraced recorder, traced recorder, tracer) triples of
    the same operations. Totals are per pass; per-call times are medians over
    all passes.
    """
    tables = [SpanTable(tracer.spans) for _, _, tracer in passes]
    n_pass = len(passes)

    def spans(name, dim=None):
        return [(t, i) for t in tables for i in t.select(name, dim)]

    out = {}
    for name in PER_CALL:
        for d in inputs.STREAM_DIMS:
            out[f"{name}_us.d{d}"] = _median_us([t.dur_ns[i] for t, i in spans(name, d)])
    out["risk.risk_exact_1d_us"] = _median_us([t.dur_ns[i] for t, i in spans("risk.risk_exact_1d")])
    out.update(special_us)
    for d in SECTOR_DIMS:
        out[f"special.sector_fraction.calls.d{d}"] = d * (d - 1) // 2 * len(spans("risk.risk_dth_order", d)) / n_pass

    mc = spans("risk.mc_risk")
    out["risk.mc_risk.busy_s"] = sum(t.dur_ns[i] for t, i in mc) * 1e-9 / n_pass
    for d in MC_DIMS:
        at_d = [(t, i) for t, i in mc if t.dim(i) == d]
        work = sum(t.extra(i)["n"] * d for t, i in at_d)
        out[f"risk.mc_risk.ns_per_sample_dim.d{d}"] = sum(t.dur_ns[i] for t, i in at_d) / work if work else 0.0
        # computed from the kernel's arrays per sample: z and y (8 bytes
        # each per component), the temporary z @ chol.T, the comparison
        # mask and the row-wise any()
        out[f"risk.mc_risk.bytes_per_sample.d{d}"] = 3 * 8 * d + d + 1

    n_sweeps = sum(len([i for i in t.roots() if t.name(i) == "cli.sweep"]) for t in tables)
    for d in inputs.SWEEP_DIMS:
        zero = 0
        for t in tables:
            under = set(t.under("cli.sweep"))
            zero += sum(1 for i in t.select("risk.mc_risk", d) if i in under and t.extra(i)["hits"] == 0)
        out[f"risk.mc_risk.zero_hit_draws.d{d}"] = zero / n_sweeps

    refs = [r for _, traced, _ in passes for r in _flat_ref(traced)]
    for name in ("d1", "d6", "d25"):
        mine = [r for key, r in refs if key == name]
        out[f"reference.hits.{name}"] = float(np.median([r["hits"] for r in mine]))
        out[f"reference.rse.{name}"] = float(np.median([r["rse"] for r in mine]))

    out["conservatism.hierarchy_report.self_us"] = _median_us(
        [t.self_ns[i] for t, i in spans("conservatism.hierarchy_report")]
    )
    out["conservatism.conservatism_us"] = _median_us([t.dur_ns[i] for t, i in spans("conservatism.conservatism")])
    out["fixtures.box_constraint_distribution_us"] = _median_us(
        [t.dur_ns[i] for t, i in spans("fixtures.box_constraint_distribution")]
    )

    out["cli.sweep.generate_s"] = sum(t.dur_ns[i] for t, i in spans("cli.sweep.generate")) * 1e-9 / n_pass
    kept = rejected = 0
    for _, traced, _ in passes:
        for sweep in traced.sweeps:
            kept += len(inputs.SWEEP_DIMS) * sweep["n_dists"]
            rejected += sweep_rejected(sweep["csv"])
    out["cli.sweep.accept_ratio"] = kept / (kept + rejected)
    for cmd in CLI_COMMANDS:
        total = 0
        for t in tables:
            total += sum(t.self_ns[i] for i in t.under(f"cli.{cmd}") if layer_of(t.name(i)) == "cli")
        out[f"cli.{cmd}.self_s"] = total * 1e-9 / n_pass

    out["import.ccrisk_s"] = statistics.median(import_s)

    layer_ns = dict.fromkeys(LAYERS, 0)
    for t in tables:
        for layer, ns in t.layer_self_ns().items():
            layer_ns[layer] += ns
    for layer, ns in layer_ns.items():
        out[f"layer.{layer}.self_s"] = ns * 1e-9 / n_pass
    traced_ns = sum(t.dur_ns[i] for t in tables for i in t.roots())
    untraced_ns = sum(u.total_ns for u, _, _ in passes)
    out["trace.traced_s"] = traced_ns * 1e-9 / n_pass
    out["trace.untraced_s"] = untraced_ns * 1e-9 / n_pass
    out["trace.overhead_s"] = (traced_ns - untraced_ns) * 1e-9 / n_pass
    return out


def _flat_ref(rec):
    return [(name, r) for name, records in rec.ref.items() for r in records]


def accounting_gap(values: dict) -> float:
    """Layer self times minus the traced total, per pass (zero up to rounding:
    every span's time is its own or one of its children's)."""
    return sum(values[f"layer.{layer}.self_s"] for layer in LAYERS) - values["trace.traced_s"]

