"""Boundary-aware losses built on signed/unsigned distance maps, plus the
hard-mask mismatch forms they reduce to on binary predictions.

Both losses act on foreground channels only (class 0 never enters). Ground
truth channels are thresholded at 0.5 to recover masks; degenerate channels
(no boundary) are skipped with a flag, and operations that would be left
with nothing to compute raise DegenerateInputError.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, check_pair, grid_sum, per_prediction
from .distance import BoundaryContext, _mask_pair, unsigned_boundary_distance
from .errors import DegenerateInputError, ValidationError


def boundary_context(g: np.ndarray, spacing=None) -> BoundaryContext:
    """Signed + unsigned boundary distance of every class channel."""
    return BoundaryContext(g, spacing)


def foreground_boundary_distances(
    x: np.ndarray, spacing=None, tag: str = "gt"
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Unsigned boundary distance of each thresholded foreground channel.

    Returns a dims + (C-1,) array (channel c maps to slot c-1) and flags for
    channels that were degenerate and got sentinel distances.
    """
    return BoundaryContext(x, spacing).foreground_distances(tag)


def _usable_classes(ctx: BoundaryContext) -> list[int]:
    """The foreground classes of ctx with a boundary; DegenerateInputError if none."""
    usable = [c for c in range(1, len(ctx.degenerate)) if not ctx.degenerate[c]]
    if not usable:
        raise DegenerateInputError("every foreground class is degenerate")
    return usable


def boundary_loss(
    ctx: BoundaryContext,
    s: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
) -> LossResult:
    """Level-set boundary loss: (1/N) sum over foreground channels of phi * s.

    phi is the ground truth's signed distance (negative inside), so mass on
    the correct side lowers the loss linearly in its distance from the
    boundary. The ground truth's own constant term is left out; see
    boundary_gt_term. Degenerate foreground channels are skipped with a
    flag; if every foreground channel is degenerate there is nothing to
    integrate against and the input is rejected.
    """
    if not isinstance(ctx, BoundaryContext):
        raise ValidationError("first argument must be a BoundaryContext (see boundary_context)")
    phi, s = check_pair(ctx.phi, s)
    num_classes = phi.shape[-1]
    n = float(math.prod(phi.shape[:-1]))
    usable = _usable_classes(ctx)
    flags = tuple(f"degenerate-class-{c}" for c in range(1, num_classes) if ctx.degenerate[c])
    value = 0.0
    grad = np.zeros_like(s)
    for c in usable:
        value += grid_sum(phi[..., c] * s[..., c], phi.ndim - 1)
        grad[..., c] = phi[..., c] / n
    return LossResult(per_prediction(value / n, phi, s), grad, flags)


def boundary_gt_term(ctx: BoundaryContext, g: np.ndarray) -> float:
    """The constant the boundary loss omits: sum of phi * g over usable
    foreground channels (not normalized). N * boundary_loss(S) minus this
    term equals the boundary mismatch form on hard predictions."""
    g = np.asarray(g, dtype=np.float64)
    if ctx.phi.shape != g.shape:
        raise ValidationError(f"context shape {ctx.phi.shape} != ground truth {g.shape}")
    return float(sum((ctx.phi[..., c] * g[..., c]).sum() for c in _usable_classes(ctx)))


def hd_loss(
    g: np.ndarray,
    s: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
    spacing=None,
    gt_dist: tuple[np.ndarray, tuple[str, ...]] | None = None,
    pred_dist: tuple[np.ndarray, tuple[str, ...]] | None = None,
) -> LossResult:
    """Hausdorff-weighted squared error:
    (1/N) sum over foreground channels of (s - g)^2 * (d_G^2 + d_S^2),
    where d_G / d_S are boundary distances of the thresholded ground truth
    and prediction channels.

    ``gt_dist`` / ``pred_dist`` accept precomputed results of
    foreground_boundary_distances — the first to amortize the ground-truth
    side, the second to pin the prediction-side maps (finite differences
    must probe the same weighting the analytic gradient was built with).
    A stack of predictions needs ``pred_dist``: without it each prediction
    would be weighted by its own maps.
    """
    g, s = check_pair(g, s)
    num_classes = g.shape[-1]
    n = float(math.prod(g.shape[:-1]))
    g_fg = g[..., 1:]
    s_fg = s[..., 1:]
    if not (g_fg >= 0.5).any():
        raise DegenerateInputError("ground-truth foreground is empty")
    stack = s.shape[: s.ndim - g.ndim]
    for c in range(1, num_classes):
        # a stack fails where any one of its predictions would
        if not (g[..., c] >= 0.5).any() and not (
            (s[..., c] >= 0.5).reshape(stack + (-1,)).any(axis=-1).all()
        ):
            raise DegenerateInputError(
                f"class {c} is empty in both ground truth and thresholded prediction"
            )
    if gt_dist is None:
        gt_dist = foreground_boundary_distances(g, spacing, tag="gt")
    if pred_dist is None:
        if stack:
            raise ValidationError("hd on a prediction stack needs pinned pred_dist")
        pred_dist = foreground_boundary_distances(s, spacing, tag="pred")
    d_g, flags_g = gt_dist
    d_s, flags_s = pred_dist
    if d_g.shape != g_fg.shape or d_s.shape != g_fg.shape:
        raise ValidationError("distance map shapes do not match the foreground channels")
    weight = d_g**2 + d_s**2
    value = grid_sum((s_fg - g_fg) ** 2 * weight, g.ndim) / n
    grad = np.zeros_like(s)
    grad[..., 1:] = 2.0 * (s_fg - g_fg) * weight / n
    return LossResult(per_prediction(value, g, s), grad, flags_g + flags_s)


def dice_coefficient(g_mask: np.ndarray, s_mask: np.ndarray) -> float:
    """Hard-mask Dice coefficient; two empty masks agree perfectly (1.0)."""
    g, s = _mask_pair(g_mask, s_mask)
    total = int(g.sum()) + int(s.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((g & s).sum()) / total


def iou_coefficient(g_mask: np.ndarray, s_mask: np.ndarray) -> float:
    """Hard-mask Jaccard index; two empty masks agree perfectly (1.0)."""
    g, s = _mask_pair(g_mask, s_mask)
    union = int((g | s).sum())
    if union == 0:
        return 1.0
    return int((g & s).sum()) / union


def dice_mismatch_form(g_mask: np.ndarray, s_mask: np.ndarray) -> float:
    """|symmetric difference| / (|G| + |S|) — equals 1 - dice_coefficient."""
    g, s = _mask_pair(g_mask, s_mask)
    total = int(g.sum()) + int(s.sum())
    if total == 0:
        raise DegenerateInputError("both masks are empty")
    return int((g ^ s).sum()) / total


def bd_mismatch_form(g_mask: np.ndarray, s_mask: np.ndarray, spacing=None) -> float:
    """Ground-truth boundary distance summed over the symmetric difference."""
    g, s = _mask_pair(g_mask, s_mask)
    if g.all() or not g.any():
        raise DegenerateInputError("ground-truth mask has no boundary")
    d_g = unsigned_boundary_distance(g, spacing)
    return float(d_g[g ^ s].sum())


def hd_mismatch_form(g_mask: np.ndarray, s_mask: np.ndarray, spacing=None) -> float:
    """(1/N) sum over the symmetric difference of d_G^2 + d_S^2."""
    g, s = _mask_pair(g_mask, s_mask)
    for name, m in (("ground-truth", g), ("prediction", s)):
        if m.all() or not m.any():
            raise DegenerateInputError(f"{name} mask has no boundary")
    d_g = unsigned_boundary_distance(g, spacing)
    d_s = unsigned_boundary_distance(s, spacing)
    diff = g ^ s
    return float((d_g[diff] ** 2 + d_s[diff] ** 2).sum() / g.size)
