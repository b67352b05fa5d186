"""The four benchmark workloads: seeded inputs and one operation each.

Input generators use numpy only, so the worker (which times the library)
and the checker (which rebuilds the same inputs to verify outputs) share
them. Operations resolve every library entry point through its module at
call time, so the tracer's patches take effect.

Inputs of ``eval-2d`` and ``dt-3d`` are drawn from (seed, op index): no
input repeats within a worker, so a cross-call memo in the library cannot
pass for a speed-up. Their work per op is nearly independent of the draw,
because each boundary distance transforms a mask and its complement, which
together cover every pixel. ``descent-2d`` and ``audit`` replay pinned
inputs whose reference outputs are recorded: their cost depends strongly
on the instance (gradcheck suites differ by up to 1.6x between seeds), so
drawing them from the seed would swamp the run-to-run spread.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("eval-2d", "descent-2d", "audit", "dt-3d")

EVAL_SHAPE = (256, 256)
EVAL_CLASSES = 4
DT_SHAPE = (64, 64, 64)
AUDIT_ARGS = ["gradcheck", "--loss", "all", "--trials", "50"]
# The registry's losses, in the order eval and gradcheck report them.
LOSSES = (
    "ce", "wce", "topk", "focal", "dpce", "ss", "dice", "iou", "tversky",
    "generalized_dice", "focal_tversky", "asymmetric", "penalty_gd", "boundary",
    "hd", "combo", "ell",
)


def ntf_bytes(arr: np.ndarray) -> bytes:
    """Encode an array in the NTF1 container (uint8 or float64 only)."""
    code = {np.dtype(np.uint8): 1, np.dtype(np.float64): 3}[arr.dtype]
    head = b"NTF1" + bytes([code, arr.ndim, 0, 0]) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()


def ntf_decode(data: bytes) -> np.ndarray:
    """Decode an NTF1 float64 or uint8 payload (no validation beyond shape)."""
    code, ndim = data[4], data[5]
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    dtype = {1: "<u1", 3: "<f8"}[code]
    return np.frombuffer(data, dtype=dtype, offset=8 + 4 * ndim).reshape(dims)


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _ellipse(shape, rng, lo, hi, spread) -> np.ndarray:
    """A rotated ellipse (2-D) or axis-aligned ellipsoid (3-D) with radii in
    [lo, hi], centered within ``spread`` of the grid's middle (a share of it)."""
    axes = [np.arange(n, dtype=np.float64) for n in shape]
    grid = np.meshgrid(*axes, indexing="ij")
    center = [rng.uniform((0.5 - spread) * n, (0.5 + spread) * n) for n in shape]
    radii = rng.uniform(lo, hi, size=len(shape))
    offs = [g - c for g, c in zip(grid, center)]
    if len(shape) == 2:
        t = rng.uniform(0.0, np.pi)
        offs = [np.cos(t) * offs[0] + np.sin(t) * offs[1], -np.sin(t) * offs[0] + np.cos(t) * offs[1]]
    return sum((o / r) ** 2 for o, r in zip(offs, radii)) <= 1.0


def eval_inputs(seed: int, op: int) -> tuple[np.ndarray, np.ndarray]:
    """256x256 labels of 4 classes painted as ellipses, plus a noisy softmax.

    Six ellipses per class scattered over the whole grid put every class in
    nearly every row and column, which keeps the EDT's work per op steady.

    Every class keeps at least 2% of the grid, and every thresholded
    prediction channel differs from its ground truth, so no mask is
    degenerate and no prediction mask repeats a ground-truth mask.
    """
    rng = _rng(seed, op)
    while True:
        labels = np.zeros(EVAL_SHAPE, dtype=np.uint8)
        for c in range(1, EVAL_CLASSES):
            for _ in range(6):
                labels[_ellipse(EVAL_SHAPE, rng, 12.0, 32.0, 0.5)] = c
        if np.bincount(labels.ravel(), minlength=EVAL_CLASSES).min() >= 0.02 * labels.size:
            break
    onehot = np.eye(EVAL_CLASSES)[labels]
    z = 2.5 * onehot + rng.standard_normal(onehot.shape)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return labels, probs


def dt_inputs(seed: int, op: int) -> np.ndarray:
    """A 64^3 ellipsoid mask, uint8."""
    return _ellipse(DT_SHAPE, _rng(seed, op), 18.0, 22.0, 0.05).astype(np.uint8)


def input_files(workload: str, seed: int, op: int) -> dict[str, bytes]:
    """The files one op reads, by name; empty for pinned-input workloads."""
    if workload == "eval-2d":
        labels, probs = eval_inputs(seed, op)
        return {"gt.ntf": ntf_bytes(labels), "pred.ntf": ntf_bytes(probs)}
    if workload == "dt-3d":
        return {"mask.ntf": ntf_bytes(dt_inputs(seed, op))}
    return {}


def descent_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Acceptance criterion 5: 32x32 grid, centered 8x8 square, and the
    dilated warm start for the hd run."""
    gt = np.zeros((32, 32), dtype=int)
    gt[12:20, 12:20] = 1
    dilated = np.zeros((32, 32), dtype=bool)
    dilated[11:21, 11:21] = True
    init = np.stack([np.where(dilated, -2.0, 2.0), np.where(dilated, 2.0, -2.0)], axis=-1)
    return gt, init


def _cli_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["segloss.cli"].main(argv)
    return code, out.getvalue()


def run_op(workload: str, opdir: Path) -> dict:
    """Run one operation on the inputs already written to ``opdir``.

    Returns what the checker needs; every value is JSON-serializable.
    """
    if workload == "eval-2d":
        report = opdir / "report.json"
        code, _ = _cli_main(
            ["eval", "--gt", str(opdir / "gt.ntf"), "--pred", str(opdir / "pred.ntf"),
             "--loss", "all", "--out", str(report)]
        )
        return {"exit": code, "report": report.read_text() if report.exists() else None}
    if workload == "dt-3d":
        out = opdir / "dist.ntf"
        code, _ = _cli_main(["dt", "--mask", str(opdir / "mask.ntf"), "--out", str(out), "--signed"])
        return {"exit": code, "out": str(out)}
    if workload == "audit":
        code, text = _cli_main(AUDIT_ARGS)
        return {"exit": code, "lines": text.splitlines()}
    if workload == "descent-2d":
        optimize = sys.modules["segloss.optimize"].optimize
        gt, init = descent_inputs()
        dice = optimize("dice", gt, steps=2000, lr=1.0, seed=7)
        hd = optimize("hd", gt, steps=200, lr=50.0, init_logits=init)
        return {
            run: [float(t.loss[-1]), float(t.dice[-1]), float(t.hausdorff[-1])]
            for run, t in (("dice", dice), ("hd", hd))
        }
    raise ValueError(f"unknown workload {workload!r}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
