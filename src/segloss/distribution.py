"""Cross-entropy family: plain, class-weighted, truncated, focal, and
distance-penalized variants.

All kernels take a one-hot ground truth ``g`` and a probability map ``s``
of shape ``dims + (C,)``, or a stack of them with shape ``(K,) + g.shape``,
and return a LossResult whose gradient is taken w.r.t. the probability
entries (class-excluded entries get zero gradient).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, grid_sum, included, over_classes, per_prediction
from .core import _class_weights, _power_derivative
from .errors import ValidationError


def _clamped(s_part: np.ndarray, cfg: LossConfig) -> np.ndarray:
    return np.clip(s_part, cfg.log_clamp, 1.0)


def _weighted_ce(g, s, sl, weight, cfg: LossConfig) -> LossResult:
    """-(1/N) sum over included entries of weight * g * log s: ce, wce and
    dpce differ only in the weight (1, one per class, one per entry)."""
    n = float(math.prod(g.shape[:-1]))
    sc = _clamped(s[..., sl], cfg)
    wg = weight * g[..., sl]
    value = -grid_sum(wg * np.log(sc), g.ndim) / n
    grad = np.zeros_like(s)
    grad[..., sl] = -wg / (n * sc)
    return LossResult(per_prediction(value, g, s), grad)


def ce(g: np.ndarray, s: np.ndarray, cfg: LossConfig = DEFAULT_CONFIG) -> LossResult:
    """Mean cross-entropy over pixels: -(1/N) sum_i log s_i[true class]."""
    g, s, sl = included(g, s, cfg)
    return _weighted_ce(g, s, sl, 1.0, cfg)


def wce(
    g: np.ndarray,
    s: np.ndarray,
    weights: np.ndarray | None = None,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Class-weighted cross-entropy; ``weights`` has one entry per class
    (default all ones, which is plain cross-entropy)."""
    g, s, sl = included(g, s, cfg)
    w = _class_weights(weights, g.shape[-1], "weights")
    if not (w > 0).any():
        raise ValidationError("at least one class weight must be positive")
    return _weighted_ce(g, s, sl, w[sl], cfg)


def topk_keep_set(
    g: np.ndarray,
    s: np.ndarray,
    threshold: float,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """The pixel set topk would select at this prediction (true-class
    probability below the threshold), as a boolean grid."""
    g, s, sl = included(g, s, cfg)
    gi = g[..., sl]
    s_true = over_classes(np.add, gi * s[..., sl])[..., 0]
    return (over_classes(np.add, gi)[..., 0] > 0) & (s_true < threshold)


def topk(
    g: np.ndarray,
    s: np.ndarray,
    t: float = 0.5,
    cfg: LossConfig = DEFAULT_CONFIG,
    keep: np.ndarray | None = None,
) -> LossResult:
    """Truncated cross-entropy: average -log s[true] over the hard pixels
    only, i.e. those whose true-class probability falls below the threshold ``t``.

    ``keep`` pins the selected pixel set explicitly (boolean over the grid);
    it is what a finite-difference probe passes so that both sides of the
    comparison differentiate the same smooth branch. A stack of predictions
    needs it: without ``keep`` each prediction would select its own set.
    """
    g, s, sl = included(g, s, cfg)
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"threshold t must be in (0, 1], got {t}")
    if keep is None:
        if s.ndim > g.ndim:
            raise ValidationError("topk on a prediction stack needs a pinned keep set")
        keep = topk_keep_set(g, s, t, cfg)
    else:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != g.shape[:-1]:
            raise ValidationError(f"keep mask shape {keep.shape} != grid {g.shape[:-1]}")
    gi = g[..., sl]
    s_true = over_classes(np.add, gi * s[..., sl])[..., 0]
    k = int(keep.sum())
    grad = np.zeros_like(s)
    if k == 0:
        empty = np.zeros(s.shape[: s.ndim - g.ndim])
        return LossResult(per_prediction(empty, g, s), grad, flags=("empty-keep-set",))
    stc = np.maximum(s_true, cfg.log_clamp)
    # indexing a stack leaves the kept entries strided; a contiguous row per
    # prediction is summed in the same order as a single prediction's
    kept = np.ascontiguousarray(stc[..., keep])
    value = -np.log(kept).sum(axis=-1) / k
    grad[..., sl] = -gi * (keep / (k * stc))[..., None]
    return LossResult(per_prediction(value, g, s), grad)


def focal(
    g: np.ndarray,
    s: np.ndarray,
    gamma: float = 2.0,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Focal cross-entropy: each pixel's -log s[true] scaled by (1-s[true])^gamma.

    gamma = 0 reduces exactly to plain cross-entropy.
    """
    g, s, sl = included(g, s, cfg)
    if gamma < 0 or not np.isfinite(gamma):
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma}")
    n = float(math.prod(g.shape[:-1]))
    gi = g[..., sl]
    si = s[..., sl]
    sc = _clamped(si, cfg)
    log_sc = np.log(sc)
    one_minus = 1.0 - si
    modul = one_minus**gamma
    # derivative of the modulation; its product with log(s) -> 0 as s -> 1
    dmodul = _power_derivative(one_minus, gamma)
    value = -grid_sum(gi * modul * log_sc, g.ndim) / n
    grad = np.zeros_like(s)
    grad[..., sl] = gi * (dmodul * log_sc - modul / sc) / n
    return LossResult(per_prediction(value, g, s), grad)


def dpce(
    g: np.ndarray,
    s: np.ndarray,
    dist: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Distance-penalized cross-entropy: per-entry weight (1 + D) where D is a
    non-negative distance map of the same shape as the probability map.

    D = 0 everywhere reduces exactly to plain cross-entropy.
    """
    g, s, sl = included(g, s, cfg)
    d = np.asarray(dist, dtype=np.float64)
    if d.shape != g.shape:
        raise ValidationError(f"distance map shape {d.shape} != {g.shape}")
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValidationError("distance map must be finite and non-negative")
    return _weighted_ce(g, s, sl, 1.0 + d[..., sl], cfg)
