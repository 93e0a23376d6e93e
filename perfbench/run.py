"""Benchmark of ccrisk: estimate-stream, sweep and reference.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload estimate-stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; see
perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread. On a 2-core x86-64 machine the quick sweep took 10.8 s
# with one OpenBLAS thread and 10.5 s with two, and one thread leaves the
# other core free, which keeps run-to-run spread down.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 15

# A fresh interpreter: import the package and the CLI, make one warm-up call.
_SETUP_CODE = """
import sys, time
t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
sys.path.insert(0, sys.argv[1])
import ccrisk, ccrisk.cli
t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
g = ccrisk.GaussianVec([-3.0, -2.5], [[1.0, 0.3], [0.3, 1.0]])
ccrisk.transcribe_dth_order(g, 1e-3)
ccrisk.cli.build_parser()
t2 = time.clock_gettime(time.CLOCK_MONOTONIC)
print(t0, t1, t2)
"""


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """(setup seconds, import seconds) of ``runs`` fresh interpreters; setup
    counts from process spawn to the end of the warm-up call."""
    setup, imports = [], []
    for _ in range(runs):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)], capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        t0, t1, t2 = map(float, proc.stdout.split())
        setup.append(t2 - start)
        imports.append(t1 - t0)
    return setup, imports


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Import ccrisk from this checkout's sources, never from elsewhere."""
    if not (SRC / "ccrisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no ccrisk sources under {SRC.name}/ in {ROOT}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import ccrisk

    if Path(ccrisk.__file__).resolve().parent != SRC / "ccrisk":
        raise SystemExit(f"error: ccrisk imported from {ccrisk.__file__}, not from {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ccrisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_sweep_bytes(rec) -> list[str]:
    """The full sweep's CSV must be byte-identical across the rounds of this
    run and across the runs made from the same sources in this checkout."""
    digests = {hashlib.sha256(s["csv"].encode()).hexdigest() for s in rec.sweeps if s["full"]}
    if not digests:
        return []
    if len(digests) > 1:
        return ["sweep CSV differs between rounds"]
    (digest,) = digests
    OUT.mkdir(exist_ok=True)
    stored = OUT / f"sweep-{source_digest()}.sha256"
    if stored.is_file():
        if stored.read_text().strip() != digest:
            return ["sweep CSV differs from an earlier run of the same sources"]
    else:
        stored.write_text(digest + "\n")
    return []


class ProbeProcess:
    """The other workloads' reduced operations, in a fresh process so they
    leave this process's peak memory alone. It runs one repetition each time
    it is stepped and waits otherwise, so the two processes never run at
    once, and the probes spread over the whole run instead of landing in one
    slow spell of the machine."""

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--probes-only"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "ProbeProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _send(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def _expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RuntimeError(f"probe process sent {line[:200]!r}, not {word!r} (exit code {self.proc.poll()})")

    def wait_ready(self) -> None:
        self._expect("ready")

    def step(self) -> None:
        self._send("step")
        self._expect("done")

    def finish(self) -> dict:
        self._send("end")
        result = json.loads(self.proc.stdout.readline())
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"probe process exited with code {self.proc.returncode}")
        return result


def serve_probes(work) -> int:
    """The probe process's side of ``ProbeProcess``."""
    from perfbench.workloads import Recorder

    work.warm_up()
    rec = Recorder()
    print("ready", flush=True)
    rep = 0
    for line in sys.stdin:
        if line.strip() == "step":
            work.probe_rep(rec, rep)
            rep += 1
            print("done", flush=True)
        elif line.strip() == "end":
            print(json.dumps(rec.to_dict()), flush=True)
            return 0
    return 1


def end_to_end_run(args) -> tuple[dict, dict]:
    from perfbench import metrics
    from perfbench.workloads import PROBE_REPS, Recorder, Workload

    work = Workload(args.workload, args.seed)
    reps = max(PROBE_REPS.values())
    setup_s = []
    with ProbeProcess(args.workload, args.seed) as probes:
        work.warm_up()
        probes.wait_ready()
        rec = Recorder()
        rounds = done = 0
        round_s = 0.0  # rounds fill --seconds; probes and set-up come on top
        while True:
            rounds_over = rounds > 0 and round_s >= args.seconds
            if rounds_over and done == reps:
                break
            # keep the probes, and the set-up interpreters with them, level
            # with the share of the rounds' time gone by
            if done < reps and (rounds_over or done * args.seconds <= reps * round_s):
                setup_s += measure_setup((done + 1) * SETUP_RUNS // reps - len(setup_s))[0]
                probes.step()
                done += 1
            else:
                t0 = time.perf_counter()
                work.round(rec)
                round_s += time.perf_counter() - t0
                rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec.merge(probes.finish())
    rec.unexpected += check_sweep_bytes(rec)
    values = metrics.end_to_end(rec, setup_s, peak_rss_mb)
    detail = {
        "rounds": rounds,
        "setup_s": setup_s,
        "faults": dict(rec.faults),
        "unexpected": rec.unexpected,
        "times": dict(rec.times),
        "ref": dict(rec.ref),
        "estimates_timed": sum(map(len, rec.estimate_ns)),
        "sweep_csv_sha256": sorted({hashlib.sha256(s["csv"].encode()).hexdigest() for s in rec.sweeps if s["full"]}),
    }
    return _result(rec, values), detail


def traced_run(args) -> tuple[dict, dict]:
    from perfbench import metrics
    from perfbench.spans import Tracer
    from perfbench.workloads import Recorder, Workload

    _, import_s = measure_setup(SETUP_RUNS)
    work = Workload(args.workload, args.seed)
    work.warm_up()
    single = dict.fromkeys(("estimate", "sweep", "table1", "table2", "check"), 1)
    counted = Recorder()  # the counted operations of every pass
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        plain, traced, tracer = Recorder(), Recorder(), Tracer()

        def plain_pass():
            work.round(plain)
            work.probes(plain, None, single)

        def traced_pass():
            with tracer.installed():
                work.round(traced, tracer)
                work.probes(traced, tracer, single)

        # alternate which pass goes first, so drift does not bias the overhead
        for run_pass in (plain_pass, traced_pass) if len(passes) % 2 == 0 else (traced_pass, plain_pass):
            run_pass()
        passes.append((plain, traced, tracer))
        for rec in (plain, traced):
            counted.attempted += rec.attempted
            counted.failed += rec.failed
            counted.faults.update(rec.faults)
            counted.unexpected += rec.unexpected
    instances = (work.stream if args.workload == "estimate-stream" else work.probe_stream).instances[:200]
    values = metrics.per_layer(passes, import_s, metrics.time_special(instances))
    gap = metrics.accounting_gap(values)
    if abs(gap) > 1e-6 * max(values["trace.traced_s"], 1.0):
        counted.unexpected.append(f"layer self times miss the traced total by {gap:.3e} s")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
    passes[-1][2].write_jsonl(trace_path)
    detail = {"passes": len(passes), "faults": dict(counted.faults), "unexpected": counted.unexpected, "trace_file": str(trace_path.relative_to(ROOT))}
    return _result(counted, values), detail


def _result(rec, values: dict) -> dict:
    # a reference with no hits has an unbounded rse; the run is then wrong
    # (its check says so) and the value is printed as 0 to keep the JSON valid
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        rec.unexpected.append(f"non-finite metrics: {', '.join(bad)}")
        values = {k: v if math.isfinite(v) else 0.0 for k, v in values.items()}
    return {
        "correct": not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": values,
    }


def emit(result: dict, spec: dict, trace: int) -> None:
    """Print each metric with its unit, then the JSON line; refuse metric
    names that differ from BENCHMARK.json."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = set(result["metrics"])
    if got != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing {sorted(set(units) - got)}, extra {sorted(got - set(units))}"
        )
    for m in declared:
        print(f"{m['name']:<48} {result['metrics'][m['name']]:>16.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    line = dict(result, metrics={n: {"value": result["metrics"][n], "unit": units[n]} for n in units})
    print(json.dumps(line, allow_nan=False))


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh process."""
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="estimate-stream, sweep, reference or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = load_spec()
    import_program()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    if args.probes_only:
        from perfbench.workloads import Workload

        return serve_probes(Workload(args.workload, args.seed))

    result, detail = traced_run(args) if args.trace else end_to_end_run(args)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(detail, result=result), fh, indent=1, default=str)
    emit(result, spec, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
