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
    boundary_gt_term,
    boundary_loss,
    dice_coefficient,
    dice_mismatch_form,
    hd_loss,
    hd_mismatch_form,
    iou_coefficient,
)
from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, one_hot
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


def _check(name: str, tol: float, cases, errors) -> RelationCheck:
    """Tally a relation over its cases: ``errors(*case)`` gives one case's
    absolute errors, and the check fails if the worst exceeds ``tol``."""
    worst, count = 0.0, 0
    for case in cases:
        worst = max(worst, *errors(*case))
        count += 1
    return RelationCheck(name, worst, tol, count, worst <= tol)


def _errors(a: LossResult, b: LossResult) -> tuple[float, float]:
    return abs(a.value - b.value), float(np.abs(a.grad - b.grad).max())


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

    def asym_errors(g, s):
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
            yield abs(asym.value - float(np.mean(per_class)))

    return [
        _check(
            "focal_gamma0_eq_ce",
            1e-9,
            instances,
            lambda g, s: _errors(focal(g, s, 0.0, cfg), ce(g, s, cfg)),
        ),
        _check(
            "wce_unit_eq_ce",
            1e-9,
            instances,
            lambda g, s: _errors(wce(g, s, np.ones(g.shape[-1]), cfg), ce(g, s, cfg)),
        ),
        _check(
            "topk_full_eq_ce",
            1e-9,
            instances,
            lambda g, s: _errors(topk(g, s, 1.0, cfg), ce(g, s, cfg)),
        ),
        _check(
            "dpce_zero_eq_ce",
            1e-9,
            instances,
            lambda g, s: _errors(dpce(g, s, np.zeros_like(g), cfg), ce(g, s, cfg)),
        ),
        _check(
            "tversky_half_eq_linear_dice",
            1e-9,
            instances,
            lambda g, s: [
                abs(tversky_loss(g, s, 0.5, 0.5, cfg).value - _linear_dice_comparator(g, s, cfg))
            ],
        ),
        _check("asymmetric_eq_tversky", 1e-12, instances, asym_errors),
        _check(
            "penalty_gd_zero_eq_generalized_dice",
            1e-15,
            instances,
            lambda g, s: _errors(penalty_gd_loss(g, s, 0.0, cfg), generalized_dice_loss(g, s, cfg)),
        ),
        _check(
            "focal_tversky_gamma1_eq_tversky",
            1e-9,
            instances,
            lambda g, s: _errors(
                focal_tversky_loss(g, s, 0.3, 0.7, 1.0, cfg), tversky_loss(g, s, 0.3, 0.7, cfg)
            ),
        ),
    ]


def _all_masks(n: int = 4) -> list[np.ndarray]:
    return [np.array(bits, dtype=bool) for bits in itertools.product((0, 1), repeat=n)]


def run_connection_checks(spacing=None) -> list[RelationCheck]:
    """Exhaustive 1x4 hard-mask checks tying soft losses to their
    symmetric-difference forms."""
    masks = _all_masks(4)
    nondeg = [m for m in masks if m.any() and not m.all()]
    pairs = list(itertools.product(masks, masks))

    def hd_errors(g_mask, s_mask):
        g, s = one_hot(g_mask.astype(int), 2), one_hot(s_mask.astype(int), 2)
        value = hd_loss(g, s, spacing=spacing).value
        return [abs(value - hd_mismatch_form(g_mask, s_mask, spacing))]

    def bd_cases():
        for g_mask in nondeg:
            g = one_hot(g_mask.astype(int), 2)
            ctx = boundary_context(g, spacing)
            gt_term = boundary_gt_term(ctx, g)
            for s_mask in masks:
                yield g_mask, s_mask, ctx, gt_term

    def bd_errors(g_mask, s_mask, ctx, gt_term):
        lhs = g_mask.size * boundary_loss(ctx, one_hot(s_mask.astype(int), 2)).value - gt_term
        return [abs(lhs - bd_mismatch_form(g_mask, s_mask, spacing))]

    def dice_iou_errors(g_mask, s_mask):
        dice = dice_coefficient(g_mask, s_mask)
        iou = iou_coefficient(g_mask, s_mask)
        return [abs(dice - 2.0 * iou / (1.0 + iou))]

    return [
        _check(
            "dice_mismatch_eq_one_minus_coeff",
            1e-12,
            [(g, s) for g, s in pairs if g.any() or s.any()],
            lambda g, s: [abs(dice_mismatch_form(g, s) - (1.0 - dice_coefficient(g, s)))],
        ),
        _check("hd_loss_eq_hd_mismatch", 1e-12, itertools.product(nondeg, nondeg), hd_errors),
        _check("bd_identity", 1e-12, bd_cases(), bd_errors),
        _check("dice_iou_relation", 1e-12, pairs, dice_iou_errors),
    ]


def run_all(
    trials: int = 100, seed: int = 0, cfg: LossConfig = DEFAULT_CONFIG, spacing=None
) -> list[RelationCheck]:
    return run_identity_checks(trials, seed, cfg) + run_connection_checks(spacing)
