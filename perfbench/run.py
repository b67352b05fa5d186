"""segloss benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload eval-2d --seed 1 --seconds 25 --trace 0

Run from the root of a segloss checkout. The library is imported from the
checkout's ``src``; nothing is installed. Each run starts a few set-up-only
worker processes (for the median ``setup_s``), then one measuring worker,
one at a time, each with BLAS/OpenMP pinned to one thread. After the worker
exits, every op's output is checked here against an independent reference
(see checks.py), so the checker's scipy import never touches the worker's
timings or memory.

With ``--trace 0`` the result carries the end-to-end metrics, whose times
are scaled to a reference machine speed sampled during each measured
interval (see speed.py); with ``--trace 1`` the per-layer metrics of a
traced worker (see tracer.py).
The last line of stdout is the result; lines before it repeat the metrics
for people, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_PROBES = 5  # set-up-only workers per run, besides the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the run's deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        for line in subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L2 cache", "L3 cache"):
                info[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "segloss" / "__init__.py").is_file():
        print(f"error: no segloss sources under {ROOT / 'src'}; run from a segloss checkout",
              file=sys.stderr)
        return 2

    import checks
    import tracer

    deadline = time.monotonic() + DEADLINE_S
    state = ROOT / ".perfbench"
    workdir = state / f"run-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = []
        for k in range(SETUP_PROBES):
            spawned, res = run_worker(
                common + ["--workdir", str(workdir / f"probe{k}"), "--setup-only"], deadline
            )
            setups.append((res["ready_at"] - spawned, res["setup_factor"]))
        trace_args = ["--trace", "1", "--trace-out", str(state / f"trace-{args.workload}.jsonl.gz")]
        spawned, res = run_worker(
            common + ["--workdir", str(workdir / "main")] + (trace_args if args.trace else []),
            deadline,
        )
        setups.append((res["ready_at"] - spawned, res["setup_factor"]))
        failures = []
        for o in res["ops"]:
            try:
                problem = checks.check(args.workload, args.seed, o["op"], o["out"])
            except Exception as exc:  # malformed output fails its op, not the run
                problem = f"check raised {exc!r}"
            if problem:
                failures.append(f"op {o['op']}: {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["ops"]
    attempted, failed = len(ops), len(failures)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": res["layers"].get(k, 0.0), "unit": tracer.unit(k)} for k in tracer.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t * f for t, f in setups), "unit": "s"},
            "cold_op_s": {"value": ops[0]["wall"] * ops[0]["factor"], "unit": "s"},
            "op_s": {"value": statistics.median(o["wall"] * o["factor"] for o in ops[1:]), "unit": "s"},
            "peak_rss_mib": {"value": res["maxrss_kib"] / 1024.0, "unit": "MiB"},
            "pass_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(machine())}")
    print(f"# ops={attempted} (1 cold, {attempted - 1} warm) failed={failed} "
          f"fail_share={failed / attempted:.3g}")
    print(f"# raw wall setups_s={[round(t, 4) for t, _ in setups]} ops_s={[round(o['wall'], 4) for o in ops]}; "
          f"speed factors {[round(f, 3) for _, f in setups]} {[round(o['factor'], 3) for o in ops]}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
