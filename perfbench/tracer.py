"""Outside-in tracer: spans around the public functions of every segloss module.

Nothing in the library changes. ``install`` rebinds each public function of
each ``segloss.*`` module to a recording wrapper in every module namespace
that holds it, because that is where a caller looks the name up: ``edt`` is
patched in ``distance``, ``optimize`` and ``cli``, the kernels in their own
modules (``registry`` calls them as module attributes), and so on. Each
wrapper knows the module it was looked up in, which tags an EDT span with
its call site. ``prepare``/``prepare_frozen`` wrappers also wrap the
evaluator they return, as ``registry.evaluator`` spans tagged with the loss.

Spans stay in memory as flat lists and are written once, after the run.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

from workloads import LOSSES

# Per-call validators and lookups: called inside nearly every kernel call,
# they belong to no layer and would only add spans and overhead.
HELPERS = frozenset(
    {
        "as_mask", "as_spacing", "sentinel_value", "check_pair", "validate_labels",
        "loss_entry", "loss_names", "resolve_params", "compare_grads",
        "random_instance", "random_params",
    }
)

FAMILIES = ("distribution", "region", "boundary", "compound")


class Tracer:
    """Records spans: name, start, end, parent, op id, and a detail field
    (the EDT's call site, pixel count and input key; the loss name; the
    bytes of a file read; the optimizer's step count)."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.detail: list[object] = []
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _span(self, name: str, fn, args, kwargs, detail=None):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.detail.append(detail)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, span: str, site: str, fn):
        tracer = self
        if span == "distance.edt":

            def wrapper(source, spacing=None):
                src = np.asarray(source)
                key = hashlib.blake2b(src.tobytes() + repr((src.shape, spacing)).encode()).digest()
                return tracer._span(span, fn, (source, spacing), {}, (site, src.size, key))

        elif span in ("registry.prepare", "registry.prepare_frozen"):

            def wrapper(name, *args, **kwargs):
                evaluator = tracer._span(span, fn, (name,) + args, kwargs, name)

                def traced_evaluator(s):
                    return tracer._span("registry.evaluator", evaluator, (s,), {}, name)

                return traced_evaluator

        elif span in ("tensorio.read_tensor", "tensorio.file_digest"):

            def wrapper(path, *args, **kwargs):
                detail = (str(path), os.path.getsize(path))
                return tracer._span(span, fn, (path,) + args, kwargs, detail)

        elif span == "optimize.optimize":

            def wrapper(*args, **kwargs):
                steps = kwargs.get("steps", args[2] if len(args) > 2 else 0)
                return tracer._span(span, fn, args, kwargs, steps)

        else:

            def wrapper(*args, **kwargs):
                return tracer._span(span, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Patch every public segloss function where it is looked up."""
        modules = {n: m for n, m in sys.modules.items() if n.startswith("segloss.")}
        originals = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == modname
                    and not attr.startswith("_")
                    and attr not in HELPERS
                ):
                    originals[obj] = f"{modname.split('.', 1)[1]}.{attr}"
        for modname, mod in modules.items():
            site = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrapper(originals[obj], site, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- output --------------------------------------------------------
    def write(self, path) -> None:
        """Gzipped JSON lines, one per span: [id, name, start, end, parent, op, detail]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.name):
                d = self.detail[i]
                if isinstance(d, tuple):
                    d = [x.hex() if isinstance(x, bytes) else x for x in d]
                row = [i, name, self.start[i], self.end[i], self.parent[i], self.op[i], d]
                fh.write(json.dumps(row) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own


def tail(values: list[float]) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(values, p))
    return float(np.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, traced_ops: dict[int, float], overhead_share: float) -> dict:
    """Per-layer metrics, each the median over the traced ops of its per-op
    value, except the EDT latency percentiles, which pool every EDT span.

    ``traced_ops`` maps op id -> wall time of that op.
    """
    own = tr.self_times()
    dur = [e - s for s, e in zip(tr.start, tr.end)]

    def has_ancestor(i: int, prefix: str) -> bool:
        p = tr.parent[i]
        while p >= 0:
            if tr.name[p].startswith(prefix):
                return True
            p = tr.parent[p]
        return False

    per_op = []
    edt_ms = []
    for op, wall in traced_ops.items():
        ids = [i for i in range(len(tr.name)) if tr.op[i] == op]
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        seen = set()
        files = {}
        for i in ids:
            name = tr.name[i]
            add(name + ".calls", 1)
            add(name + ".self_s", own[i])
            family = name.split(".", 1)[0]
            if family in FAMILIES:
                add(family + ".calls", 1)
                add(family + ".self_s", own[i])
            if tr.parent[i] >= 0:
                add("_attributed_s", own[i])
            if name == "distance.edt":
                site, px, key = tr.detail[i]
                add("distance.edt.px", px)
                add("_edt_repeats", key in seen)
                seen.add(key)
                edt_ms.append(dur[i] * 1e3)
                if site == "optimize":
                    add("optimize.measure_edt_s", dur[i])
                if has_ancestor(i, "optimize."):
                    add("_edt_in_optimize", 1)
            elif name in ("registry.prepare", "registry.prepare_frozen"):
                add(f"loss.{tr.detail[i]}.prepare_s", dur[i])
            elif name == "registry.evaluator":
                add(f"loss.{tr.detail[i]}.eval_s", dur[i])
                if has_ancestor(i, "gradcheck."):
                    add("gradcheck.loss_evals", 1)
            elif name in ("tensorio.read_tensor", "tensorio.file_digest"):
                path, size = tr.detail[i]
                add("tensorio.bytes_read", size)
                files[path] = size
            elif name == "optimize.optimize":
                add("optimize.steps", tr.detail[i])
        calls = m.get("distance.edt.calls", 0)
        m["distance.edt.repeat_share"] = m.pop("_edt_repeats", 0) / calls if calls else 0.0
        px = m.get("distance.edt.px", 0)
        m["distance.edt.ns_per_px"] = m.get("distance.edt.self_s", 0.0) / px * 1e9 if px else 0.0
        steps = m.get("optimize.steps", 0)
        m["optimize.edt_per_step"] = m.pop("_edt_in_optimize", 0) / steps if steps else 0.0
        distinct = sum(files.values())
        m["tensorio.read_amplification"] = m.get("tensorio.bytes_read", 0) / distinct if distinct else 0.0
        m["trace.unattributed_share"] = 1.0 - m.pop("_attributed_s", 0.0) / wall
        per_op.append(m)

    keys = set().union(*per_op)
    out = {k: statistics.median(m.get(k, 0.0) for m in per_op) for k in keys}
    out["distance.edt.p50_ms"] = float(np.median(edt_ms)) if edt_ms else 0.0
    out["distance.edt.tail_ms"] = tail(edt_ms)
    out["trace.overhead_share"] = overhead_share
    return out


PER_LAYER = (
    [f"distance.edt.{k}" for k in ("calls", "px", "self_s", "ns_per_px", "p50_ms", "tail_ms", "repeat_share")]
    + ["distance.level_set.calls", "distance.unsigned_boundary_distance.calls",
       "distance.boundary_penalty_map.self_s"]
    + [f"registry.{f}.{k}" for f in ("prepare", "prepare_frozen", "evaluator") for k in ("calls", "self_s")]
    + [f"loss.{n}.{k}" for n in LOSSES for k in ("prepare_s", "eval_s")]
    + [f"{f}.{k}" for f in FAMILIES for k in ("calls", "self_s")]
    + ["core.softmax.calls", "core.softmax.self_s", "core.softmax_vjp.self_s",
       "core.validate_prob.self_s", "core.one_hot.self_s"]
    + [f"tensorio.{k}" for k in ("read_tensor.self_s", "file_digest.self_s", "write_tensor.self_s",
                                 "bytes_read", "read_amplification")]
    + [f"optimize.{k}" for k in ("optimize.self_s", "steps", "edt_per_step", "measure_edt_s")]
    + [f"gradcheck.{k}" for k in ("finite_diff.calls", "finite_diff.self_s", "loss_evals", "run_suite.self_s")]
    + ["cli.main.self_s", "trace.overhead_share", "trace.unattributed_share"]
)

UNITS = {"calls": "count", "px": "px", "self_s": "s", "ns_per_px": "ns/px", "p50_ms": "ms",
         "tail_ms": "ms", "repeat_share": "ratio", "prepare_s": "s", "eval_s": "s",
         "bytes_read": "B", "read_amplification": "ratio", "steps": "count",
         "edt_per_step": "count", "measure_edt_s": "s", "loss_evals": "count",
         "overhead_share": "ratio", "unattributed_share": "ratio"}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
