"""Overlap-style losses: soft Dice and friends.

Sums run pooled over pixels and included classes (class 0 drops out when
the config excludes the background). The asymmetric similarity loss is the
exception: it is defined per foreground class and averaged, independent of
the background toggle. With a stack of predictions, shape ``(K,) + g.shape``,
every sum runs per prediction.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, check_pair, class_sums, grid_sum, included, per_prediction
from .errors import ValidationError


def _pow(base, exponent: float):
    """base ** exponent where base > 0, else 0, for a float or each entry of
    a (K,) array, by Python's float pow: numpy's vectorized power differs
    from it in the last bit on some inputs and CPUs."""
    if np.ndim(base) == 0:
        return base**exponent if base > 0.0 else 0.0
    return np.array([_pow(b, exponent) for b in base.tolist()])


def ss_loss(
    g: np.ndarray,
    s: np.ndarray,
    w: float = 0.5,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Sensitivity-specificity loss: squared errors split by true region.

    w weights the foreground (sensitivity) term, 1-w the background term.
    """
    g, s, sl = included(g, s, cfg)
    if not (0.0 <= w <= 1.0):
        raise ValidationError(f"w must be in [0, 1], got {w}")
    gi, si = g[..., sl], s[..., sl]
    eps = cfg.epsilon
    sq = (gi - si) ** 2
    pos = gi.sum() + eps
    neg = (1.0 - gi).sum() + eps
    value = (
        w * grid_sum(sq * gi, g.ndim) / pos
        + (1.0 - w) * grid_sum(sq * (1.0 - gi), g.ndim) / neg
    )
    grad = np.zeros_like(s)
    grad[..., sl] = -2.0 * (gi - si) * (w * gi / pos + (1.0 - w) * (1.0 - gi) / neg)
    return LossResult(per_prediction(value, g, s), grad)


def dice_loss(g: np.ndarray, s: np.ndarray, cfg: LossConfig = DEFAULT_CONFIG) -> LossResult:
    """Soft Dice loss with squared-sum denominator:
    1 - (2<g,s> + eps) / (|g|^2 + |s|^2 + eps).
    """
    g, s, sl = included(g, s, cfg)
    gi, si = g[..., sl], s[..., sl]
    eps = cfg.epsilon
    a = 2.0 * grid_sum(gi * si, g.ndim) + eps
    b = (gi**2).sum() + grid_sum(si**2, g.ndim) + eps
    value = 1.0 - a / b
    grad = np.zeros_like(s)
    grad[..., sl] = -(2.0 * gi * b - a * 2.0 * si) / (b * b)
    return LossResult(per_prediction(value, g, s), grad)


def iou_loss(g: np.ndarray, s: np.ndarray, cfg: LossConfig = DEFAULT_CONFIG) -> LossResult:
    """Soft Jaccard loss: 1 - (<g,s> + eps) / (sum(g) + sum(s) - <g,s> + eps)."""
    g, s, sl = included(g, s, cfg)
    gi, si = g[..., sl], s[..., sl]
    eps = cfg.epsilon
    overlap = grid_sum(gi * si, g.ndim)
    a = overlap + eps
    b = gi.sum() + grid_sum(si, g.ndim) - overlap + eps
    value = 1.0 - a / b
    grad = np.zeros_like(s)
    grad[..., sl] = -(gi * b - a * (1.0 - gi)) / (b * b)
    return LossResult(per_prediction(value, g, s), grad)


def tversky_index(
    g: np.ndarray,
    s: np.ndarray,
    alpha: float = 0.3,
    beta: float = 0.7,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Soft Tversky index: overlap over overlap + alpha*FP + beta*FN.

    alpha = beta = 0.5 makes 1 - index coincide with the linear-denominator
    Dice loss (with the stabilizer doubled accordingly).
    """
    g, s, sl = included(g, s, cfg)
    if alpha < 0 or beta < 0 or not np.isfinite(alpha) or not np.isfinite(beta):
        raise ValidationError(f"alpha/beta must be finite and >= 0, got {alpha}, {beta}")
    if alpha + beta == 0:
        raise ValidationError("alpha + beta must be positive")
    gi, si = g[..., sl], s[..., sl]
    eps = cfg.epsilon
    overlap = grid_sum(gi * si, g.ndim)
    fp = grid_sum((1.0 - gi) * si, g.ndim)
    fn = grid_sum(gi * (1.0 - si), g.ndim)
    a = overlap + eps
    b = overlap + alpha * fp + beta * fn + eps
    value = a / b
    db = gi + alpha * (1.0 - gi) - beta * gi  # d b / d s
    grad = np.zeros_like(s)
    grad[..., sl] = (gi * b - a * db) / (b * b)
    return LossResult(per_prediction(value, g, s), grad)


def tversky_loss(
    g: np.ndarray,
    s: np.ndarray,
    alpha: float = 0.3,
    beta: float = 0.7,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """1 - Tversky index."""
    idx = tversky_index(g, s, alpha, beta, cfg)
    return LossResult(1.0 - idx.value, -idx.grad, idx.flags)


def generalized_dice_loss(
    g: np.ndarray, s: np.ndarray, cfg: LossConfig = DEFAULT_CONFIG
) -> LossResult:
    """Generalized Dice loss with per-class weights 1 / (class volume)^2.

    Classes absent from the ground truth get weight 0 (and a flag) instead
    of an infinite weight.
    """
    g, s, sl = included(g, s, cfg)
    gi, si = g[..., sl], s[..., sl]
    eps = cfg.epsilon
    counts = gi.reshape(-1, gi.shape[-1]).sum(axis=0)
    flags = []
    with np.errstate(divide="ignore"):
        w = np.where(counts > 0, 1.0 / counts**2, 0.0)
    for c in np.nonzero(counts == 0)[0]:
        flags.append(f"empty-class-{c + cfg.first_class()}")
    overlap_c = class_sums(gi * si, g.ndim)
    total_c = class_sums(gi + si, g.ndim)
    u = 2.0 * grid_sum(w * overlap_c, 1) + eps
    v = grid_sum(w * total_c, 1) + eps
    value = 1.0 - u / v
    grad = np.zeros_like(s)
    grad[..., sl] = -w * (2.0 * gi * v - u) / (v * v)
    return LossResult(per_prediction(value, g, s), grad, tuple(flags))


def focal_tversky_loss(
    g: np.ndarray,
    s: np.ndarray,
    alpha: float = 0.3,
    beta: float = 0.7,
    gamma: float = 4.0 / 3.0,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """(1 - Tversky index)^(1/gamma), gamma in [1, 3].

    gamma = 1 reduces exactly to the Tversky loss. At a perfect index the
    power law's derivative is taken as its limit 0.
    """
    if not (1.0 <= gamma <= 3.0):
        raise ValidationError(f"gamma must be in [1, 3], got {gamma}")
    idx = tversky_index(g, s, alpha, beta, cfg)
    base = 1.0 - idx.value
    p = 1.0 / gamma
    # exponent 1: the derivative stays -d(index) even at a perfect index
    slope = np.where(base > 0.0, p * _pow(base, p - 1.0), 1.0 if gamma == 1.0 else 0.0)
    return LossResult(_pow(base, p), idx.expand(slope) * (-idx.grad), idx.flags)


def asymmetric_loss(
    g: np.ndarray,
    s: np.ndarray,
    beta: float = 1.5,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Asymmetric similarity loss: an F-beta-style score per foreground class,
    averaged, with false negatives weighted beta^2 / (1 + beta^2) and false
    positives 1 / (1 + beta^2).

    beta = 1 matches Tversky with alpha = beta = 0.5 on the same class set.
    """
    g, s = check_pair(g, s)
    if beta < 0 or not np.isfinite(beta):
        raise ValidationError(f"beta must be finite and >= 0, got {beta}")
    eps = cfg.epsilon
    w_fn = beta**2 / (1.0 + beta**2)
    w_fp = 1.0 / (1.0 + beta**2)
    n_fg = g.shape[-1] - 1
    grid = g.ndim - 1
    grad = np.zeros_like(s)
    total = 0.0
    for c in range(1, g.shape[-1]):
        gc = g[..., c]
        sc = s[..., c]
        overlap = grid_sum(gc * sc, grid)
        fn = grid_sum(gc * (1.0 - sc), grid)
        fp = grid_sum((1.0 - gc) * sc, grid)
        a = overlap + eps
        b = overlap + w_fn * fn + w_fp * fp + eps
        total += 1.0 - a / b
        # d b / d s = gc - w_fn*gc + w_fp*(1-gc) = w_fp  (since 1 - w_fn = w_fp)
        grad[..., c] = -(gc * b - a * w_fp) / (b * b) / n_fg
    return LossResult(per_prediction(total / n_fg, g, s), grad)


def penalty_gd_loss(
    g: np.ndarray,
    s: np.ndarray,
    k: float = 2.5,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Generalized Dice loss passed through L / (1 + k (1 - L)).

    k = 0 is bitwise-identical to the generalized Dice loss.
    """
    if k < 0 or not np.isfinite(k):
        raise ValidationError(f"k must be finite and >= 0, got {k}")
    gd = generalized_dice_loss(g, s, cfg)
    denom = 1.0 + k * (1.0 - gd.value)
    scale = gd.expand((1.0 + k) / (denom * denom))
    return LossResult(gd.value / denom, gd.grad * scale, gd.flags)
