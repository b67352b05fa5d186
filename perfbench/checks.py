"""Output checks, run by the parent process after the worker exits.

The checker is independent of the library: loss values come from the
closed-form definitions below with default parameters, and distance maps
from ``scipy.ndimage.distance_transform_edt``. Values recorded from the
seed commit (``references.json``) pin the default and the held-out seed
on top of that, and are the only check for the pinned-input workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

import workloads

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())
TOL = 1e-9
EPS = 1e-6  # LossConfig defaults
CLAMP = 1e-12


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


def signed_distance(mask: np.ndarray) -> np.ndarray:
    """Negative inside the mask, positive outside, between pixel centers."""
    return np.where(mask, -distance_transform_edt(mask), distance_transform_edt(~mask))


def _boundary_distance(mask: np.ndarray) -> np.ndarray:
    if mask.all() or not mask.any():
        return np.full(mask.shape, float(sum(mask.shape)))
    return np.abs(signed_distance(mask))


def _tversky(g, s, alpha, beta):
    ov = (g * s).sum()
    fp = ((1.0 - g) * s).sum()
    fn = (g * (1.0 - s)).sum()
    return (ov + EPS) / (ov + alpha * fp + beta * fn + EPS)


def _gd(g, s):
    counts = g.reshape(-1, g.shape[-1]).sum(0)
    w = 1.0 / counts**2
    u = 2.0 * (w * (g * s).reshape(-1, g.shape[-1]).sum(0)).sum() + EPS
    v = (w * (g + s).reshape(-1, g.shape[-1]).sum(0)).sum() + EPS
    return 1.0 - u / v


def expected_losses(labels: np.ndarray, s: np.ndarray) -> dict[str, float]:
    """Default-parameter values of the 16 losses that run on a C > 2 input."""
    num_classes = s.shape[-1]
    g = np.eye(num_classes)[labels]
    n = labels.size
    log_s = np.log(np.clip(s, CLAMP, 1.0))
    s_true = (g * s).sum(-1)
    keep = s_true < 0.5
    masks = [labels == c for c in range(num_classes)]
    penalty = np.zeros_like(g)
    for c, m in enumerate(masks):
        dt = _boundary_distance(m)
        penalty[..., c] = 1.0 - dt / dt.max()
    sq = (g - s) ** 2
    ti = _tversky(g, s, 0.3, 0.7)
    gd = _gd(g, s)
    w_fn, w_fp = 1.5**2 / (1.0 + 1.5**2), 1.0 / (1.0 + 1.5**2)
    asym = [
        1.0 - ((g[..., c] * s[..., c]).sum() + EPS)
        / ((g[..., c] * s[..., c]).sum() + w_fn * (g[..., c] * (1.0 - s[..., c])).sum()
           + w_fp * ((1.0 - g[..., c]) * s[..., c]).sum() + EPS)
        for c in range(1, num_classes)
    ]
    d_g = np.stack([_boundary_distance(masks[c]) for c in range(1, num_classes)], -1)
    d_s = np.stack([_boundary_distance(s[..., c] >= 0.5) for c in range(1, num_classes)], -1)
    dice_c = (2.0 * (g * s).reshape(-1, num_classes).sum(0) + EPS) / (
        g.reshape(-1, num_classes).sum(0) + s.reshape(-1, num_classes).sum(0) + EPS
    )
    y = -np.log(np.maximum(s_true, CLAMP))
    return {
        "ce": -(g * log_s).sum() / n,
        "wce": -(g * log_s).sum() / n,
        "topk": -np.log(np.maximum(s_true, CLAMP))[keep].sum() / keep.sum(),
        "focal": -(g * (1.0 - s) ** 2 * log_s).sum() / n,
        "dpce": -((1.0 + penalty) * g * log_s).sum() / n,
        "ss": 0.5 * (sq * g).sum() / (g.sum() + EPS) + 0.5 * (sq * (1.0 - g)).sum() / ((1.0 - g).sum() + EPS),
        "dice": 1.0 - (2.0 * (g * s).sum() + EPS) / ((g**2).sum() + (s**2).sum() + EPS),
        "iou": 1.0 - ((g * s).sum() + EPS) / (g.sum() + s.sum() - (g * s).sum() + EPS),
        "tversky": 1.0 - ti,
        "generalized_dice": gd,
        "focal_tversky": (1.0 - ti) ** 0.75,
        "asymmetric": float(np.mean(asym)),
        "penalty_gd": gd / (1.0 + 2.5 * (1.0 - gd)),
        "boundary": sum((signed_distance(masks[c]) * s[..., c]).sum() for c in range(1, num_classes)) / n,
        "hd": ((s[..., 1:] - g[..., 1:]) ** 2 * (d_g**2 + d_s**2)).sum() / n,
        "ell": 0.8 * ((-np.log(dice_c)) ** 0.3).mean() + 0.2 * (y**0.3).mean(),
    }


def check_eval(seed: int, op: int, out: dict) -> str | None:
    """None when the eval report is right, else the first problem found."""
    if out.get("exit") != 0 or out.get("report") is None:
        return f"eval exited {out.get('exit')}"
    report = json.loads(out["report"])
    files = workloads.input_files("eval-2d", seed, op)
    if report["schema"] != "segloss-eval/1":
        return f"schema {report['schema']!r}"
    for key, name in (("gt", "gt.ntf"), ("pred", "pred.ntf")):
        if report["inputs"][key]["sha256"] != workloads.digest(files[name]):
            return f"{key} digest does not match the generated input"
    rows = report["losses"]
    if [r["name"] for r in rows] != list(workloads.LOSSES):
        return "loss rows are not the 17 losses in registry order"
    labels, probs = workloads.eval_inputs(seed, op)
    expected = expected_losses(labels.astype(np.int64), probs)
    pinned = REFERENCES["eval-2d"].get(str(seed), {}).get(str(op), {})
    for row in rows:
        name = row["name"]
        if name == "combo":
            if "skipped" not in row:
                return "combo was not reported as skipped"
            continue
        if "value" not in row:
            return f"{name}: no value ({row.get('error')})"
        if not close(row["value"], expected[name]):
            return f"{name}: {row['value']!r} vs independent {expected[name]!r}"
        if name in pinned and not close(row["value"], pinned[name]):
            return f"{name}: {row['value']!r} vs recorded {pinned[name]!r}"
    return None


def check_dt(seed: int, op: int, out: dict) -> str | None:
    if out.get("exit") != 0:
        return f"dt exited {out.get('exit')}"
    data = Path(out["out"]).read_bytes()
    got = workloads.ntf_decode(data)
    want = signed_distance(workloads.dt_inputs(seed, op).astype(bool))
    if got.shape != want.shape or got.dtype != np.float64:
        return f"dt wrote {got.dtype} {got.shape}"
    err = float(np.abs(got - want).max())
    return None if err <= TOL else f"dt max error {err!r}"


def check_audit(out: dict) -> str | None:
    if out.get("exit") != 0:
        return f"gradcheck exited {out.get('exit')}"
    lines = out.get("lines", [])
    if len(lines) != len(workloads.LOSSES):
        return f"gradcheck printed {len(lines)} lines"
    for name, line in zip(workloads.LOSSES, lines):
        if not line.startswith(f"{name}: PASS "):
            return f"gradcheck line {line!r}"
    return None


def check_descent(out: dict) -> str | None:
    for run, ref in REFERENCES["descent-2d"].items():
        got = out.get(run)
        if got is None or not all(close(a, b) for a, b in zip(got, ref)):
            return f"{run} descent final (loss, dice, hausdorff) {got} vs recorded {ref}"
    return None


def check(workload: str, seed: int, op: int, out: dict) -> str | None:
    """None when the op's output is right, else what was wrong."""
    if "error" in out:
        return out["error"]
    if workload == "eval-2d":
        return check_eval(seed, op, out)
    if workload == "dt-3d":
        return check_dt(seed, op, out)
    if workload == "audit":
        return check_audit(out)
    return check_descent(out)
