"""Name-indexed access to every loss kernel, with default parameters.

prepare() binds a loss to a fixed ground truth — taking any
ground-truth-side maps (penalty maps, level sets, boundary distances) from
one BoundaryContext, which callers may share across losses — and returns
an evaluator ``s -> LossResult``. prepare_frozen() additionally pins the
prediction-side selection/distance maps at a reference prediction, which
is the branch a finite-difference probe has to stay on.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import boundary as _boundary
from . import compound as _compound
from . import distribution as _distribution
from . import region as _region
from .config import DEFAULT_CONFIG, LossConfig
from .core import LossResult, check_pair
from .distance import BoundaryContext, as_spacing
from .errors import ValidationError

Evaluator = Callable[[np.ndarray], LossResult]


@dataclass(frozen=True)
class LossEntry:
    family: str
    defaults: dict
    make: Callable
    freeze: Callable | None = None
    binary_only: bool = False
    maps: bool = False  # takes the ground truth's distance maps from a BoundaryContext


def _call(module, kernel: str, **flags) -> LossEntry:
    """The entry of a loss computed as module.kernel(g, s, *params, cfg),
    in the family its module is named for. Its parameters, their order and
    their defaults are those between s and cfg in the kernel's signature.
    Like every kernel here, it is looked up on the module at each call."""
    signature = inspect.signature(getattr(module, kernel)).parameters
    names = list(signature)
    defaults = {k: signature[k].default for k in names[2 : names.index("cfg")]}

    def make(g, cfg, p, ctx):
        args = tuple(p.values())
        return lambda s: getattr(module, kernel)(g, s, *args, cfg)

    return LossEntry(module.__name__.rpartition(".")[2], defaults, make, **flags)


def _freeze_topk(g, s0, cfg, p, ctx):
    (t,) = p.values()
    keep = _distribution.topk_keep_set(g, s0, t, cfg)
    return lambda s: _distribution.topk(g, s, t, cfg, keep=keep)


def _make_dpce(g, cfg, p, ctx):
    penalty = ctx.penalty_map()
    return lambda s: _distribution.dpce(g, s, penalty, cfg)


def _make_boundary(g, cfg, p, ctx):
    return lambda s: _boundary.boundary_loss(ctx, s, cfg)


def _make_hd(g, cfg, p, ctx):
    gt_dist = ctx.foreground_distances()
    last = [None, None]  # the last thresholded foreground masks and their maps

    def evaluator(s):
        s = np.asarray(s, dtype=np.float64)
        pred_dist = None  # hd_loss rejects a stack without pinned maps
        if s.shape == g.shape:
            masks = s[..., 1:] >= 0.5
            if not np.array_equal(masks, last[0]):
                last[:] = masks, _boundary.foreground_boundary_distances(s, ctx.spacing, "pred")
            pred_dist = last[1]
        return _boundary.hd_loss(g, s, cfg, ctx.spacing, gt_dist=gt_dist, pred_dist=pred_dist)

    return evaluator


def _freeze_hd(g, s0, cfg, p, ctx):
    gt_dist = ctx.foreground_distances()
    pred_dist = _boundary.foreground_boundary_distances(s0, ctx.spacing, tag="pred")
    return lambda s: _boundary.hd_loss(
        g, s, cfg, spacing=ctx.spacing, gt_dist=gt_dist, pred_dist=pred_dist
    )


REGISTRY: dict[str, LossEntry] = {
    "ce": _call(_distribution, "ce"),
    "wce": _call(_distribution, "wce"),
    "topk": _call(_distribution, "topk", freeze=_freeze_topk),
    "focal": _call(_distribution, "focal"),
    "dpce": LossEntry("distribution", {}, _make_dpce, maps=True),
    "ss": _call(_region, "ss_loss"),
    "dice": _call(_region, "dice_loss"),
    "iou": _call(_region, "iou_loss"),
    "tversky": _call(_region, "tversky_loss"),
    "generalized_dice": _call(_region, "generalized_dice_loss"),
    "focal_tversky": _call(_region, "focal_tversky_loss"),
    "asymmetric": _call(_region, "asymmetric_loss"),
    "penalty_gd": _call(_region, "penalty_gd_loss"),
    "boundary": LossEntry("boundary", {}, _make_boundary, maps=True),
    "hd": LossEntry("boundary", {}, _make_hd, freeze=_freeze_hd, maps=True),
    "combo": _call(_compound, "combo_loss", binary_only=True),
    "ell": _call(_compound, "ell_loss"),
}


def loss_names() -> list[str]:
    return list(REGISTRY)


def loss_entry(name: str) -> LossEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown loss {name!r}; available: {', '.join(REGISTRY)}"
        ) from None


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _of_kind(default, value) -> bool:
    """A number where the default is one; None or a flat list of numbers
    where the default is None (per-class weights)."""
    if default is not None:
        return _is_number(value)
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = value.tolist()
    return value is None or isinstance(value, (list, tuple)) and all(map(_is_number, value))


def resolve_params(name: str, overrides: dict | None = None) -> dict:
    """Defaults for a loss merged with caller overrides; unknown keys, and
    values not of their default's kind (see _of_kind), are rejected."""
    entry = loss_entry(name)
    params = dict(entry.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValidationError(
                f"loss {name!r} takes no parameter {key!r}; "
                f"allowed: {', '.join(params) if params else '(none)'}"
            )
        if not _of_kind(entry.defaults[key], value):
            kind = "null or a flat list of numbers" if entry.defaults[key] is None else "a number"
            raise ValidationError(f"loss {name!r} parameter {key!r} must be {kind}, got {value!r}")
        params[key] = value
    return params


def _bind(name, g, params, spacing, context):
    """Look up and check a loss; its parameters; and, if it takes distance
    maps, the BoundaryContext to take them from."""
    entry = loss_entry(name)
    g, _ = check_pair(g, g)  # the shape check every kernel makes, before g.shape[-1]
    if entry.binary_only and g.shape[-1] != 2:
        raise ValidationError(f"loss {name!r} is binary-only, got {g.shape[-1]} classes")
    p = resolve_params(name, params)
    if not entry.maps:
        return entry, g, p, None
    if context is None:
        return entry, g, p, BoundaryContext(g, spacing)
    if context.spacing != as_spacing(spacing, g.ndim - 1) or not np.array_equal(
        context.masks, g >= 0.5
    ):
        raise ValidationError("context was built for another ground truth or spacing")
    return entry, g, p, context


def prepare(
    name: str,
    g: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
    params: dict | None = None,
    spacing=None,
    context: BoundaryContext | None = None,
) -> Evaluator:
    """Bind a loss to a ground truth; returns an evaluator over predictions.

    A loss that needs distance maps of ``g`` (dpce, boundary, hd) takes them
    from ``context``, a BoundaryContext of ``g`` at ``spacing``; one context
    passed to several prepare calls computes each map once. Without one, a
    fresh context serves this loss alone. The hd evaluator also keeps the
    last prediction's thresholded masks and their maps, and computes maps
    again only when those masks change.
    """
    entry, g, p, ctx = _bind(name, g, params, spacing, context)
    return entry.make(g, cfg, p, ctx)


def prepare_frozen(
    name: str,
    g: np.ndarray,
    s0: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
    params: dict | None = None,
    spacing=None,
) -> Evaluator:
    """Like prepare, but prediction-side selection/distance maps are pinned
    at s0 so the returned evaluator is smooth around it."""
    entry, g, p, ctx = _bind(name, g, params, spacing, None)
    if entry.freeze is not None:
        return entry.freeze(g, np.asarray(s0, dtype=np.float64), cfg, p, ctx)
    return entry.make(g, cfg, p, ctx)


def evaluate(
    name: str,
    g: np.ndarray,
    s: np.ndarray,
    cfg: LossConfig = DEFAULT_CONFIG,
    params: dict | None = None,
    spacing=None,
) -> LossResult:
    """One-shot evaluation of a loss by name."""
    return prepare(name, g, cfg, params, spacing)(s)
