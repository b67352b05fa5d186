"""Tests of the benchmark itself: exact EDT counts under the tracer, and the
independent checker against the recorded seed-commit values.

    python3 -m pytest perfbench -q

The counts repeat exactly; a change to them means the library now does a
different amount of distance-transform work, which a later change may
claim, but only as a count.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import segloss.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def traced_op(workload: str, tmp_path: Path, seed: int = 1):
    for name, data in workloads.input_files(workload, seed, 0).items():
        (tmp_path / name).write_bytes(data)
    tr = Tracer()
    tr.current_op = 0
    tr.install()
    try:
        out = workloads.run_op(workload, tmp_path)
    finally:
        tr.uninstall()
    return tr, out


def edt_ids(tr: Tracer) -> list[int]:
    return [i for i, name in enumerate(tr.name) if name == "distance.edt"]


def test_eval_2d_edt_counts_and_values(tmp_path):
    tr, out = traced_op("eval-2d", tmp_path)
    assert checks.check("eval-2d", 1, 0, out) is None
    m = layer_metrics(tr, {0: 1.0}, 0.0)
    assert m["distance.edt.calls"] == 28
    assert m["distance.edt.repeat_share"] == 0.5
    assert m["tensorio.read_amplification"] == 2.0


def test_descent_2d_edt_counts(tmp_path):
    tr, out = traced_op("descent-2d", tmp_path)
    assert checks.check("descent-2d", 1, 0, out) is None
    runs = [i for i, name in enumerate(tr.name) if name == "optimize.optimize"]
    per_run = dict.fromkeys(runs, 0)
    for i in edt_ids(tr):
        p = tr.parent[i]
        while p not in per_run:
            p = tr.parent[p]
        per_run[p] += 1
    assert list(per_run.values()) == [2002, 606]


def test_audit_edt_count(tmp_path):
    tr, out = traced_op("audit", tmp_path)
    assert checks.check("audit", 1, 0, out) is None
    assert len(edt_ids(tr)) == 936


def test_dt_3d_output_checks(tmp_path):
    _, out = traced_op("dt-3d", tmp_path, seed=7919)
    assert checks.check("dt-3d", 7919, 0, out) is None


@pytest.mark.parametrize("seed", [1, 7919])
def test_independent_losses_match_recorded_values(seed):
    labels, probs = workloads.eval_inputs(seed, 1)
    expected = checks.expected_losses(labels.astype(int), probs)
    recorded = checks.REFERENCES["eval-2d"][str(seed)]["1"]
    assert recorded.keys() == expected.keys()
    for name, value in recorded.items():
        assert checks.close(expected[name], value), name


def test_inputs_never_repeat_within_a_run():
    for workload in ("eval-2d", "dt-3d"):
        digests = {
            workloads.digest(data)
            for op in range(6)
            for data in workloads.input_files(workload, 1, op).values()
        }
        assert len(digests) == 6 * (2 if workload == "eval-2d" else 1)
