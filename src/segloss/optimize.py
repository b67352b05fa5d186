"""Logit-space gradient-descent harness.

Optimizes per-pixel logits through softmax against a fixed ground truth —
no network, no data: a desk-scale way to watch where a loss's minimizer
actually is. Plain gradient descent, deterministic for a given seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import registry
from .boundary import dice_coefficient
from .config import DEFAULT_CONFIG, LossConfig
from .core import one_hot, over_classes, softmax, softmax_vjp
from .distance import as_spacing, edt, sentinel_value
from .errors import SeglossError, ValidationError

GENERATOR_ID = "numpy PCG64 standard_normal"


@dataclass(frozen=True)
class OptTrajectory:
    """Per-step records of an optimization run.

    ``dice`` is the hard-mask Dice of (argmax > 0) against (gt > 0);
    ``hausdorff`` the exact Hausdorff distance of the same masks, with the
    grid's sentinel distance standing in whenever one side is empty so the
    records stay finite. Row 0 is the state before any update.
    """

    loss_name: str
    steps: np.ndarray
    loss: np.ndarray
    dice: np.ndarray
    hausdorff: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.steps.size
        if not (self.loss.size == self.dice.size == self.hausdorff.size == n):
            raise ValidationError("trajectory columns have mismatched lengths")
        if n == 0 or (np.diff(self.steps) <= 0).any():
            raise ValidationError("trajectory steps must be strictly increasing")
        for col in (self.loss, self.dice, self.hausdorff):
            if not np.isfinite(col).all():
                raise ValidationError("trajectory records must be finite")


def optimize(
    loss: str,
    gt_labels: np.ndarray,
    steps: int,
    lr: float,
    seed: int = 0,
    cfg: LossConfig = DEFAULT_CONFIG,
    params: dict | None = None,
    spacing=None,
    num_classes: int | None = None,
    init_logits: np.ndarray | None = None,
) -> OptTrajectory:
    """Run plain gradient descent on logits for a registered loss.

    Logits start from seeded standard-normal draws (or ``init_logits`` for a
    warm start); every step pulls the loss gradient back through softmax.
    Deterministic for fixed (seed, loss, lr, steps).
    """
    try:
        n = operator.index(steps)
    except TypeError:
        n = 0
    if isinstance(steps, bool) or n < 1:
        raise ValidationError(f"steps must be a positive integer, got {steps!r}")
    steps = n
    if isinstance(lr, bool) or not (lr > 0 and np.isfinite(lr)):
        raise ValidationError(f"lr must be positive and finite, got {lr!r}")
    labels = np.asarray(gt_labels)
    if num_classes is None:
        num_classes = max(2, int(labels.max()) + 1)
    g = one_hot(labels, num_classes)
    evaluator = registry.prepare(loss, g, cfg, params, spacing)

    rng = np.random.default_rng(seed)
    if init_logits is None:
        z = rng.standard_normal(labels.shape + (num_classes,))
        init_kind = "seeded-normal"
    else:
        z = np.array(init_logits, dtype=np.float64)
        if z.shape != labels.shape + (num_classes,):
            raise ValidationError(
                f"init_logits shape {z.shape} != {labels.shape + (num_classes,)}"
            )
        init_kind = "warm-start"

    sp = as_spacing(spacing, labels.ndim)
    gt_fg = labels > 0
    sentinel = sentinel_value(labels.shape, sp)
    dist_to_gt = edt(gt_fg, sp) if gt_fg.any() else None

    last = [None, None]  # the last argmax mask and its (dice, hausdorff)

    def measure(s: np.ndarray) -> tuple[float, float]:
        # argmax > 0; argmax takes the first of tied classes, so class 0 must be beaten
        pred_fg = over_classes(np.maximum, s[..., 1:])[..., 0] > s[..., 0]
        if not np.array_equal(pred_fg, last[0]):
            hd = sentinel
            if dist_to_gt is not None and pred_fg.any():
                dist_to_pred = edt(pred_fg, sp)
                hd = float(max(dist_to_pred[gt_fg].max(), dist_to_gt[pred_fg].max()))
            last[:] = pred_fg, (dice_coefficient(gt_fg, pred_fg), hd)
        return last[1]

    rows = []
    s = softmax(z)
    for step in range(steps + 1):  # the last evaluation follows the last update
        try:
            res = evaluator(s)
        except ValidationError as exc:
            raise SeglossError(f"optimization aborted at step {step}: {exc}") from exc
        rows.append((step, res.value) + measure(s))
        if step == steps:
            break
        z = z - lr * softmax_vjp(s, res.grad)
        try:
            s = softmax(z)  # which rejects non-finite logits
        except ValidationError as exc:
            raise SeglossError(
                f"optimization diverged: non-finite logits after step {step}"
            ) from exc

    data = np.asarray(rows, dtype=np.float64)
    return OptTrajectory(
        loss_name=loss,
        steps=data[:, 0].astype(int),
        loss=data[:, 1],
        dice=data[:, 2],
        hausdorff=data[:, 3],
        metadata={
            "loss": loss,
            "params": registry.resolve_params(loss, params),
            "lr": lr,
            "steps": steps,
            "seed": seed,
            "generator": GENERATOR_ID,
            "init": init_kind,
            "num_classes": num_classes,
            "spacing": list(sp),
        },
    )
