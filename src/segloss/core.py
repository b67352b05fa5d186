"""Label / probability tensor model: validation, one-hot encoding, softmax.

Layout conventions used throughout the package:

* label maps are integer arrays over the spatial grid, shape ``dims``
  (rank 1 to 3),
* one-hot encodings and probability maps are float arrays with a trailing
  class axis, shape ``dims + (C,)``, ``C >= 2``,
* a "pixel" is one spatial location, ``N`` is the number of pixels.

Class 0 is the background by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LossConfig
from .errors import ValidationError

MAX_SPATIAL_RANK = 3


def validate_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Check a label map and return it as a contiguous int array."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"label map must be integer, got dtype {labels.dtype}")
    if labels.ndim < 1 or labels.ndim > MAX_SPATIAL_RANK:
        raise ValidationError(f"label map rank must be 1..{MAX_SPATIAL_RANK}, got {labels.ndim}")
    if labels.size == 0:
        raise ValidationError("label map is empty")
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        idx = np.argwhere(bad)[0]
        raise ValidationError(
            f"label {labels[tuple(idx)]} at index {tuple(int(i) for i in idx)} "
            f"outside [0, {num_classes})"
        )
    return np.ascontiguousarray(labels)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode a label map to shape ``dims + (num_classes,)``, float64.

    Exactly one 1.0 per pixel; everything else 0.0.
    """
    labels = validate_labels(labels, num_classes)
    out = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def validate_prob(s: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check a probability map: entries in [0, 1], per-pixel sums within tol of 1.

    Returns the map as float64. Raises ValidationError naming the first
    offending pixel.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.ndim - 1 > MAX_SPATIAL_RANK:
        raise ValidationError(
            f"probability map must have 1..{MAX_SPATIAL_RANK} spatial axes plus a "
            f"class axis, got rank {s.ndim}"
        )
    if s.shape[-1] < 2:
        raise ValidationError(f"probability map needs >= 2 classes, got {s.shape[-1]}")
    if s.size == 0:
        raise ValidationError("probability map is empty")
    inside = (s >= 0.0) & (s <= 1.0)  # NaN fails both comparisons
    if not inside.all():
        idx = np.argwhere(~inside)[0]
        raise ValidationError(
            f"probability {s[tuple(idx)]} at index {tuple(int(i) for i in idx)} "
            f"outside [0, 1]"
        )
    sums = over_classes(np.add, s)[..., 0]
    off = np.abs(sums - 1.0) > tol
    if off.any():
        idx = np.argwhere(off)[0]
        raise ValidationError(
            f"pixel {tuple(int(i) for i in idx)} sums to {sums[tuple(idx)]!r}, "
            f"more than {tol} away from 1"
        )
    return s


# numpy reduces a short trailing axis slowly, row by row: on 32x32x2 its class
# max takes ~40 us and its sum ~18 us, a fold of class slices 4 us each. Below 8
# values numpy sums in sequence from 0.0; the fold adds in that order, 0.0 last,
# which gives the same float. From 8 on numpy sums pairwise, so the fold hands
# over. A max is exact in any order, up to the sign of a zero maximum, which
# numpy's own SIMD kernels do not agree on.
def over_classes(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` for ``np.add`` or
    ``np.maximum`` on a float array, bit for bit, as a left-to-right fold
    of class slices."""
    c = x.shape[-1]
    if not 0 < c < 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = ufunc(x[..., :1], x[..., 1:2]) if c > 1 else x[..., :1].copy()
    for k in range(2, c):
        ufunc(out, x[..., k : k + 1], out=out)
    if ufunc is np.add:
        out += 0.0  # as numpy's 0.0 start does, turns an all -0.0 sum into +0.0
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the trailing class axis (shift-stabilized)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 2 or z.shape[-1] == 0:
        raise ValidationError(f"softmax needs a non-empty trailing class axis, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValidationError("softmax input must be finite")
    e = np.exp(z - over_classes(np.maximum, z))
    return e / over_classes(np.add, e)


def _power_derivative(base: np.ndarray, gamma: float) -> np.ndarray:
    """d(base**gamma)/d(base), with the gamma < 1 singularity at 0 taken as 0."""
    if gamma >= 1.0:
        return gamma * base ** (gamma - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(base > 0, gamma * base ** (gamma - 1.0), 0.0)


def softmax_vjp(s: np.ndarray, grad_s: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits.

    For each pixel: g_z = s * (g_s - <s, g_s>).
    """
    s = np.asarray(s, dtype=np.float64)
    grad_s = np.asarray(grad_s, dtype=np.float64)
    if s.shape != grad_s.shape:
        raise ValidationError(f"shape mismatch: s {s.shape} vs grad {grad_s.shape}")
    return s * (grad_s - over_classes(np.add, s * grad_s))


@dataclass(frozen=True)
class LossResult:
    """A loss value plus its gradient w.r.t. the probability map.

    A kernel given one prediction ``s`` returns a float value and a
    gradient shaped like ``s``. Given a stack of K predictions, shape
    ``(K,) + g.shape``, it returns a ``(K,)`` array of values and a
    ``(K,) + g.shape`` gradient; entry k is bit-identical to what the kernel
    returns for ``s[k]`` alone. Every value and gradient entry is checked
    to be finite.

    ``flags`` records non-fatal conditions hit during evaluation
    (degenerate classes skipped, sentinel distances used, ...).
    """

    value: float | np.ndarray
    grad: np.ndarray
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if isinstance(self.value, np.ndarray):
            finite = np.isfinite(self.value).all()
        else:
            finite = math.isfinite(self.value)
        if not finite:
            raise ValidationError(f"loss value is not finite: {self.value!r}")
        if not np.isfinite(self.grad).all():
            raise ValidationError("loss gradient contains non-finite entries")

    def expand(self, x):
        """``x``, one number per prediction like the value, shaped to
        broadcast against the gradient: unchanged for one prediction,
        ``(K, 1, ..., 1)`` for a stack of K."""
        if np.ndim(x) == 0:
            return x
        return np.reshape(x, np.shape(x) + (1,) * (self.grad.ndim - 1))


def check_pair(g: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common entry check for loss kernels: a one-hot ground truth of shape
    ``dims + (C,)`` and a probability map of the same shape, or a non-empty
    stack of them with shape ``(K,) + g.shape``."""
    g = np.asarray(g, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if g.shape != s.shape and g.shape != s.shape[1:]:
        raise ValidationError(f"shape mismatch: ground truth {g.shape} vs prediction {s.shape}")
    if g.ndim < 2 or g.shape[-1] < 2:
        raise ValidationError(f"expected dims + (C>=2,) arrays, got shape {g.shape}")
    if s.ndim > g.ndim and s.shape[0] == 0:
        raise ValidationError(f"empty prediction stack, shape {s.shape}")
    return g, s


def included(g: np.ndarray, s: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray, slice]:
    """check_pair, plus the slice of classes that take part in class sums:
    class 0 drops out when the config excludes the background."""
    g, s = check_pair(g, s)
    return g, s, slice(cfg.first_class(), None)


def _class_weights(weights, num_classes: int, name: str) -> np.ndarray:
    """A per-class weight vector (default all ones): shape (C,), finite,
    non-negative; ``name`` is the parameter it came from."""
    if weights is None:
        return np.ones(num_classes)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (num_classes,):
        raise ValidationError(f"{name} shape {w.shape} != ({num_classes},)")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValidationError(f"{name} must be finite and non-negative")
    return w


# The reductions below take ``ndim``, the number of axes one prediction's
# array has; an array with more carries a leading stack axis. One
# prediction is reduced as a plain numpy sum, to numpy scalars whose
# arithmetic is cheap; a stack keeps the reduced axes as size-1 axes so the
# totals broadcast against its gradient. Every total of a stack is the same
# float as the single prediction's. Kernels square a total as b * b, not
# b**2: numpy's scalar power and its array power differ in the last bit for
# some b.


def grid_sum(x: np.ndarray, ndim: int):
    """The sum over the last ``ndim`` axes: a scalar, or one per prediction."""
    if x.ndim == ndim:
        return x.sum()
    return x.sum(axis=tuple(range(-ndim, 0)), keepdims=True)


def class_sums(x: np.ndarray, ndim: int) -> np.ndarray:
    """Per-class sums over the grid axes, the ``ndim - 1`` axes before the
    trailing class axis: shape ``(C,)``, or one row per prediction."""
    if x.ndim == ndim:
        return x.reshape(-1, x.shape[-1]).sum(axis=0)
    return x.sum(axis=tuple(range(-ndim, -1)), keepdims=True)


def per_prediction(total, g: np.ndarray, s: np.ndarray) -> float | np.ndarray:
    """Totals from grid_sum as a LossResult value: a float for one
    prediction, a ``(K,)`` array for a stack of K."""
    if s.ndim == g.ndim:
        return float(total)
    return np.reshape(total, s.shape[:1])
