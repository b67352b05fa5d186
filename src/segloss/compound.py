"""Compound losses mixing cross-entropy with overlap terms.

Like every kernel, both take one prediction or a stack of them with shape
``(K,) + g.shape``; every sum runs per prediction.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, check_pair, class_sums, grid_sum, included, over_classes, per_prediction
from .core import _class_weights, _power_derivative
from .errors import ValidationError


def combo_loss(
    g: np.ndarray,
    s: np.ndarray,
    alpha: float = 0.5,
    beta: float = 0.5,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Binary-only blend: alpha * weighted BCE - (1 - alpha) * Dice coefficient.

    The BCE runs on the foreground channel with beta on the foreground term
    and 1-beta on the background term; the Dice coefficient uses the linear
    denominator. Note the overlap part enters as a coefficient (higher is
    better), so the loss can be negative.
    """
    g, s = check_pair(g, s)
    if g.shape[-1] != 2:
        raise ValidationError(f"combo loss is binary-only, got {g.shape[-1]} classes")
    if not (0.0 <= alpha <= 1.0) or not (0.0 <= beta <= 1.0):
        raise ValidationError(f"alpha and beta must be in [0, 1], got {alpha}, {beta}")
    eps = cfg.epsilon
    n = float(math.prod(g.shape[:-1]))
    grid = g.ndim - 1
    g1 = g[..., 1]
    s1 = s[..., 1]
    s_pos = np.clip(s1, cfg.log_clamp, 1.0)
    s_neg = np.clip(1.0 - s1, cfg.log_clamp, 1.0)
    bce = beta * g1 * np.log(s_pos) + (1.0 - beta) * (1.0 - g1) * np.log(s_neg)
    ce_part = -grid_sum(bce, grid) / n
    a = 2.0 * grid_sum(g1 * s1, grid) + eps
    b = g1.sum() + grid_sum(s1, grid) + eps
    dice_coef = a / b
    value = alpha * ce_part - (1.0 - alpha) * dice_coef
    grad = np.zeros_like(s)
    d_ce = -(beta * g1 / s_pos - (1.0 - beta) * (1.0 - g1) / s_neg) / n
    d_dice = (2.0 * g1 * b - a) / (b * b)
    grad[..., 1] = alpha * d_ce - (1.0 - alpha) * d_dice
    return LossResult(per_prediction(value, g, s), grad)


def ell_loss(
    g: np.ndarray,
    s: np.ndarray,
    w_dice: float = 0.8,
    w_ce: float = 0.2,
    gamma_dice: float = 0.3,
    gamma_ce: float = 0.3,
    class_weights: np.ndarray | None = None,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Exponential-logarithmic loss: powers of -log applied to both a
    per-class Dice coefficient (linear denominator) and the pixelwise
    cross-entropy, then averaged and mixed.

    class_weights (one per class, default all ones) scale the CE term of
    pixels by their true class. Gammas below 1 flatten easy regions; the
    power law's derivative at an exactly-perfect term is taken as 0.
    """
    g, s, sl = included(g, s, cfg)
    if w_dice < 0 or w_ce < 0 or w_dice + w_ce <= 0:
        raise ValidationError(f"need non-negative weights with a positive sum, got {w_dice}, {w_ce}")
    if not (gamma_dice > 0 and np.isfinite(gamma_dice)) or not (gamma_ce > 0 and np.isfinite(gamma_ce)):
        raise ValidationError(f"gammas must be positive and finite, got {gamma_dice}, {gamma_ce}")
    cw = _class_weights(class_weights, g.shape[-1], "class_weights")
    eps = cfg.epsilon
    gi = g[..., sl]
    si = s[..., sl]
    grad = np.zeros_like(s)

    # Dice branch: mean over included classes of (-log Dice_c)^gamma_dice.
    a_c = 2.0 * class_sums(gi * si, g.ndim) + eps
    b_c = class_sums(gi, g.ndim) + class_sums(si, g.ndim) + eps
    dice_c = a_c / b_c
    x_c = -np.log(dice_c)
    n_cls = gi.shape[-1]
    dice_term = grid_sum(x_c**gamma_dice, 1) / n_cls
    power = _power_derivative(x_c, gamma_dice)
    # d(-log Dice_c)/ds_ic = -(2 g_ic b_c - a_c) / (a_c b_c)
    d_x = -(2.0 * gi * b_c - a_c) / (a_c * b_c)
    grad[..., sl] += (w_dice / n_cls) * power * d_x

    # CE branch: mean over pixels of w[true] * (-log s_true)^gamma_ce.
    has_true = over_classes(np.add, gi)[..., 0] > 0
    n_eff = int(has_true.sum())
    if n_eff == 0:
        raise ValidationError("no pixel has an included true class")
    s_true = np.maximum(over_classes(np.add, gi * si)[..., 0], cfg.log_clamp)
    y = -np.log(s_true)
    w_pix = over_classes(np.add, gi * cw[sl])[..., 0]  # weight of each pixel's true class
    ce_pix = w_pix * np.where(has_true, y, 0.0) ** gamma_ce * has_true
    ce_term = grid_sum(ce_pix[..., None], g.ndim) / n_eff
    y_pow = _power_derivative(y, gamma_ce)
    pix = -w_pix * y_pow * has_true / (n_eff * s_true)
    grad[..., sl] += gi * pix[..., None] * w_ce

    value = w_dice * dice_term + w_ce * ce_term
    return LossResult(per_prediction(value, g, s), grad)
