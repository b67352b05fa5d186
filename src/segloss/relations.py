"""Cross-loss identity checks and hard-mask connection checks.

The identity suite verifies the exact parameter reductions between losses
(focal at gamma 0 is cross-entropy, Tversky at 0.5/0.5 is linear Dice, and
so on) on random instances. The connection suite verifies, exhaustively
over 1x4 hard mask pairs, that the soft losses collapse to their
symmetric-difference forms on binary predictions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .boundary import (
    bd_mismatch_form,
    boundary_context,
    boundary_loss,
    dice_coefficient,
    dice_mismatch_form,
    hd_loss,
    hd_mismatch_form,
    iou_coefficient,
)
from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult
from .distance import unsigned_boundary_distance
from .distribution import ce, dpce, focal, topk, wce
from .errors import ValidationError
from .gradcheck import random_instance
from .region import (
    asymmetric_loss,
    focal_tversky_loss,
    generalized_dice_loss,
    penalty_gd_loss,
    tversky_loss,
)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    max_abs_err: float
    tolerance: float
    cases: int
    passed: bool


def _track(diffs: list[float], a: LossResult, b: LossResult) -> None:
    diffs.append(abs(a.value - b.value))
    diffs.append(float(np.abs(a.grad - b.grad).max()))


def _linear_dice_comparator(g: np.ndarray, s: np.ndarray, cfg: LossConfig) -> float:
    """1 - linear-denominator Dice with the stabilizer doubled, which is the
    exact rational identity partner of tversky(0.5, 0.5)."""
    first = cfg.first_class()
    gi, si = g[..., first:], s[..., first:]
    eps2 = 2.0 * cfg.epsilon
    return 1.0 - (2.0 * (gi * si).sum() + eps2) / (gi.sum() + si.sum() + eps2)


def run_identity_checks(
    trials: int = 100, seed: int = 0, cfg: LossConfig = DEFAULT_CONFIG
) -> list[RelationCheck]:
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    instances = [random_instance(rng) for _ in range(trials)]
    checks = []

    def run(name, tol, pairs, fn):
        diffs = [0.0]
        cases = 0
        for g, s in pairs:
            fn(diffs, g, s)
            cases += 1
        worst = max(diffs)
        checks.append(RelationCheck(name, worst, tol, cases, worst <= tol))

    run(
        "focal_gamma0_eq_ce",
        1e-9,
        instances,
        lambda d, g, s: _track(d, focal(g, s, 0.0, cfg), ce(g, s, cfg)),
    )
    run(
        "wce_unit_eq_ce",
        1e-9,
        instances,
        lambda d, g, s: _track(d, wce(g, s, np.ones(g.shape[-1]), cfg), ce(g, s, cfg)),
    )
    run(
        "topk_full_eq_ce",
        1e-9,
        instances,
        lambda d, g, s: _track(d, topk(g, s, 1.0, cfg), ce(g, s, cfg)),
    )
    run(
        "dpce_zero_eq_ce",
        1e-9,
        instances,
        lambda d, g, s: _track(d, dpce(g, s, np.zeros_like(g), cfg), ce(g, s, cfg)),
    )
    run(
        "tversky_half_eq_linear_dice",
        1e-9,
        instances,
        lambda d, g, s: d.append(
            abs(tversky_loss(g, s, 0.5, 0.5, cfg).value - _linear_dice_comparator(g, s, cfg))
        ),
    )

    def asym_check(diffs, g, s):
        # per foreground class, asymmetric's F-score is Tversky with
        # alpha = 1/(1+b^2), beta = b^2/(1+b^2) on that class alone
        fg_cfg = replace(cfg, include_background=False)
        for b in (0.5, 1.0, 1.5, 3.0):
            alpha = 1.0 / (1.0 + b**2)
            beta = b**2 / (1.0 + b**2)
            asym = asymmetric_loss(g, s, b, cfg)
            per_class = []
            for c in range(1, g.shape[-1]):
                g2 = np.stack([1.0 - g[..., c], g[..., c]], axis=-1)
                s2 = np.stack([1.0 - s[..., c], s[..., c]], axis=-1)
                per_class.append(tversky_loss(g2, s2, alpha, beta, fg_cfg).value)
            diffs.append(abs(asym.value - float(np.mean(per_class))))

    run("asymmetric_eq_tversky", 1e-12, instances, asym_check)
    run(
        "penalty_gd_zero_eq_generalized_dice",
        1e-15,
        instances,
        lambda d, g, s: _track(d, penalty_gd_loss(g, s, 0.0, cfg), generalized_dice_loss(g, s, cfg)),
    )
    run(
        "focal_tversky_gamma1_eq_tversky",
        1e-9,
        instances,
        lambda d, g, s: _track(
            d, focal_tversky_loss(g, s, 0.3, 0.7, 1.0, cfg), tversky_loss(g, s, 0.3, 0.7, cfg)
        ),
    )
    return checks


def _all_masks(n: int = 4) -> list[np.ndarray]:
    return [np.array(bits, dtype=bool) for bits in itertools.product((0, 1), repeat=n)]


def _onehot_of(mask: np.ndarray) -> np.ndarray:
    m = mask.astype(np.float64)
    return np.stack([1.0 - m, m], axis=-1)


def run_connection_checks(spacing=None) -> list[RelationCheck]:
    """Exhaustive 1x4 hard-mask checks tying soft losses to their
    symmetric-difference forms."""
    masks = _all_masks(4)
    nondeg = [m for m in masks if m.any() and not m.all()]
    checks = []

    diffs = [0.0]
    cases = 0
    for g_mask, s_mask in itertools.product(masks, masks):
        if not g_mask.any() and not s_mask.any():
            continue
        diffs.append(
            abs(dice_mismatch_form(g_mask, s_mask) - (1.0 - dice_coefficient(g_mask, s_mask)))
        )
        cases += 1
    worst = max(diffs)
    checks.append(RelationCheck("dice_mismatch_eq_one_minus_coeff", worst, 1e-12, cases, worst <= 1e-12))

    diffs = [0.0]
    cases = 0
    for g_mask, s_mask in itertools.product(nondeg, nondeg):
        value = hd_loss(_onehot_of(g_mask), _onehot_of(s_mask), spacing=spacing).value
        diffs.append(abs(value - hd_mismatch_form(g_mask, s_mask, spacing)))
        cases += 1
    worst = max(diffs)
    checks.append(RelationCheck("hd_loss_eq_hd_mismatch", worst, 1e-12, cases, worst <= 1e-12))

    diffs = [0.0]
    cases = 0
    n = 4.0
    for g_mask in nondeg:
        ctx = boundary_context(_onehot_of(g_mask), spacing)
        d_g = unsigned_boundary_distance(g_mask, spacing)
        gt_sum = float(d_g[g_mask].sum())
        for s_mask in masks:
            lhs = n * boundary_loss(ctx, _onehot_of(s_mask)).value + gt_sum
            diffs.append(abs(lhs - bd_mismatch_form(g_mask, s_mask, spacing)))
            cases += 1
    worst = max(diffs)
    checks.append(RelationCheck("bd_identity", worst, 1e-12, cases, worst <= 1e-12))

    diffs = [0.0]
    cases = 0
    for g_mask, s_mask in itertools.product(masks, masks):
        dice = dice_coefficient(g_mask, s_mask)
        iou = iou_coefficient(g_mask, s_mask)
        diffs.append(abs(dice - 2.0 * iou / (1.0 + iou)))
        cases += 1
    worst = max(diffs)
    checks.append(RelationCheck("dice_iou_relation", worst, 1e-12, cases, worst <= 1e-12))

    return checks


def run_all(
    trials: int = 100, seed: int = 0, cfg: LossConfig = DEFAULT_CONFIG, spacing=None
) -> list[RelationCheck]:
    return run_identity_checks(trials, seed, cfg) + run_connection_checks(spacing)
