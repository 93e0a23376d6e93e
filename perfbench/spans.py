"""Spans around the calls into each layer of ccrisk, for the traced run.

The tracer wraps the names through which one layer calls another (for
example ``ccrisk.cli.mc_risk`` or ``ccrisk.risk.signed_mahalanobis``) for
the duration of a traced pass and restores them afterwards, so the library
itself is unchanged and the untraced passes run the original code. Each span
records its name, start, end, parent, the instance it belongs to and, where
it applies, the dimension of its input. Spans stay in memory until the run
writes them out as JSON lines.

The scalar special functions (``psi``, ``sector_fraction``) are not wrapped:
the d-th-order estimate makes d(d-1)/2 of them per call and a span each
would double its cost. Their time stays in the risk layer's self time; the
traced run times single calls of them separately.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

_NAME, _START, _END, _PARENT, _INSTANCE, _DIM, _EXTRA = range(7)


def _dim_of_g(args, result):
    return int(args[0].mean.shape[0])


def _dim_of_matrix(args, result):
    return int(np.shape(args[0])[0])


def _mc_extra(args, result):
    return {"n": int(result.n_samples), "hits": int(round(result.estimate * result.n_samples))}


def _no_dim(args, result):
    return None


# span name -> (layer, consumer namespaces, dimension of the call, extras)
WRAPPED = {
    "linalg.cholesky_lower": ("linalg", ["ccrisk.gaussian"], _dim_of_matrix, None),
    "gaussian.signed_mahalanobis": ("gaussian", ["ccrisk.risk"], _dim_of_g, None),
    "risk.risk_spectral": ("risk", ["ccrisk", "ccrisk.cli", "ccrisk.conservatism"], _dim_of_g, None),
    "risk.risk_first_order": ("risk", ["ccrisk", "ccrisk.cli", "ccrisk.conservatism", "ccrisk.risk"], _dim_of_g, None),
    "risk.risk_dth_order": ("risk", ["ccrisk", "ccrisk.cli", "ccrisk.conservatism", "ccrisk.risk"], _dim_of_g, None),
    "risk.risk_exact_1d": ("risk", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "risk.risk_nakka_chung": ("risk", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "risk.risk_norm_spectral": ("risk", ["ccrisk.cli"], _no_dim, None),
    "risk.mc_risk": ("risk.mc_risk", ["ccrisk.cli", "ccrisk.conservatism"], _dim_of_g, _mc_extra),
    "transcription.transcribe_spectral_radius": ("transcription", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "transcription.transcribe_first_order": ("transcription", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "transcription.transcribe_dth_order": ("transcription", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "transcription.bound_linear_1d": ("transcription", ["ccrisk", "ccrisk.cli"], _no_dim, None),
    "transcription.bound_nakka_chung": ("transcription", ["ccrisk", "ccrisk.cli"], _no_dim, None),
    "conservatism.hierarchy_report": ("conservatism", ["ccrisk", "ccrisk.cli"], _dim_of_g, None),
    "conservatism.conservatism": ("conservatism", ["ccrisk", "ccrisk.cli", "ccrisk.conservatism"], _no_dim, None),
    "fixtures.box_constraint_distribution": ("fixtures", ["ccrisk.cli"], _no_dim, None),
    "cli.sweep.generate": ("cli", ["ccrisk.cli"], _no_dim, None),
}
# attribute looked up in each namespace, when it differs from the span name's tail
_ATTR = {"cli.sweep.generate": "_generate_instance"}

# spans the benchmark opens itself, around one operation of a workload
ROOT_LAYER = {
    "estimate.instance": "harness",
    "cli.sweep": "cli",
    "cli.table1": "cli",
    "cli.table2": "cli",
    "cli.check": "cli",
}
LAYERS = ("linalg", "gaussian", "risk", "risk.mc_risk", "transcription", "conservatism", "fixtures", "cli", "harness")


def layer_of(name: str) -> str:
    if name in ROOT_LAYER:
        return ROOT_LAYER[name]
    if name == "gaussian.GaussianVec":
        return "gaussian"
    return WRAPPED[name][0]


class Tracer:
    """In-memory span recorder. One instance id per root span; child spans
    inherit it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance = 0

    def open(self, name: str, dim=None) -> int:
        if not self._stack:
            self._instance += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._instance, dim, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, dim_fn, extra_fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx)
                span = tracer.spans[idx]
                try:
                    span[_DIM] = dim_fn(args, result)
                except (AttributeError, IndexError, TypeError):
                    span[_DIM] = None  # the call raised before its input was complete
                if extra_fn is not None and result is not None:
                    span[_EXTRA] = extra_fn(args, result)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer boundary that exists in this version of ccrisk."""
        from ccrisk.gaussian import GaussianVec

        patches = []
        for name, (_, namespaces, dim_fn, extra_fn) in WRAPPED.items():
            attr = _ATTR.get(name, name.rsplit(".", 1)[1])
            for ns in namespaces:
                module = importlib.import_module(ns)
                fn = getattr(module, attr, None)
                if callable(fn):
                    patches.append((module, attr, fn, self._wrap(name, fn, dim_fn, extra_fn)))
        post_init = GaussianVec.__post_init__
        patches.append((GaussianVec, "__post_init__", post_init, self._wrap("gaussian.GaussianVec", post_init, _dim_of_g, None)))
        try:
            for owner, attr, _, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, instance, dim, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "instance": instance}
                if dim is not None:
                    rec["dim"] = dim
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


class SpanTable:
    """Durations, self times and per-name views over a list of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        self.dur_ns = [s[_END] - s[_START] for s in spans]
        self.self_ns = [d - c for d, c in zip(self.dur_ns, child_ns)]

    def roots(self):
        return [i for i, s in enumerate(self.spans) if s[_PARENT] < 0]

    def select(self, name: str, dim=None):
        return [
            i for i, s in enumerate(self.spans) if s[_NAME] == name and (dim is None or s[_DIM] == dim)
        ]

    def under(self, root_name: str):
        """Indices of spans whose root span has the given name."""
        root_of = []
        for s in self.spans:
            p = s[_PARENT]
            root_of.append(root_of[p] if p >= 0 else s[_NAME])
        return [i for i, r in enumerate(root_of) if r == root_name]

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for s, self_ns in zip(self.spans, self.self_ns):
            out[layer_of(s[_NAME])] += self_ns
        return out

    def dim(self, i):
        return self.spans[i][_DIM]

    def extra(self, i):
        return self.spans[i][_EXTRA]

    def name(self, i):
        return self.spans[i][_NAME]
