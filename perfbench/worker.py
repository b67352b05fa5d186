"""One benchmark worker: a fresh process that sets up, then runs operations.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS/OpenMP pinned to one thread. It prints one JSON object on stdout:
when set-up finished (``time.monotonic``, which is system-wide on Linux, so
the parent can subtract its own spawn time), each op's wall time, output
and machine-speed factor (see speed.py; set-up has one too), its peak RSS
and, with tracing, the per-layer metrics.

Set-up is interpreter start, ``import segloss`` and writing op 0's inputs.
Op 0 is the cold op. Warm ops follow while the next one, at the median
warm time so far, still fits in ``--seconds`` counted from the cold op's
start; at least one warm op always runs. A traced worker traces the cold
op, then alternates untraced and traced warm ops, so the tracing overhead
is measured inside the same process; it needs one warm op of each kind.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads


def write_inputs(workload: str, seed: int, op: int, workdir: Path, seen: set) -> Path:
    """Write op ``op``'s inputs to their own directory; refuse a repeat."""
    opdir = workdir / f"op{op}"
    opdir.mkdir(parents=True, exist_ok=True)
    for name, data in workloads.input_files(workload, seed, op).items():
        key = workloads.digest(data)
        if key in seen:
            raise RuntimeError(f"op {op} repeats an earlier input ({name})")
        seen.add(key)
        (opdir / name).write_bytes(data)
    return opdir


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    seen: set = set()
    with speed.Sampler() as setup:
        importlib.import_module("segloss.cli")  # imports every segloss module
        opdir = write_inputs(args.workload, args.seed, 0, args.workdir, seen)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_factor": setup.factor()}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    ops = []
    start = time.perf_counter()
    op = 0
    while True:
        if op > 0:
            opdir = write_inputs(args.workload, args.seed, op, args.workdir, seen)
        traced = tracer is not None and op % 2 == 0
        if traced:
            tracer.current_op = op
            tracer.install()
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(args.workload, opdir)
            except Exception:  # recorded as a failed op; the run goes on
                out = {"error": traceback.format_exc(limit=3)}
            wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        ops.append({"op": op, "traced": traced, "wall": wall, "factor": sampler.factor(), "out": out})
        op += 1
        warm = ops[1:]
        kinds = {o["traced"] for o in warm}
        if len(kinds) == (2 if tracer else 1):
            nxt = statistics.median(o["wall"] for o in warm)
            if time.perf_counter() - start + nxt > args.seconds:
                break

    result = {
        "ready_at": ready_at,
        "setup_factor": setup.factor(),
        "ops": ops,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracer import layer_metrics

        traced_walls = {o["op"]: o["wall"] for o in ops[1:] if o["traced"]}
        t_on = statistics.median(o["wall"] * o["factor"] for o in ops[1:] if o["traced"])
        t_off = statistics.median(o["wall"] * o["factor"] for o in ops[1:] if not o["traced"])
        result["layers"] = layer_metrics(tracer, traced_walls, (t_on - t_off) / t_on)
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
