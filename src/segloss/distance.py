"""Exact Euclidean distance transforms on binary masks.

``edt`` is a from-scratch separable transform in whole-array numpy
(Felzenszwalb & Huttenlocher 2012, with the binary first phase of
Meijster et al. 2000; anisotropic spacing supported). On axis 0, forward
and backward scans of the nearest source index give the squared distance
along that axis directly. Every later axis takes the minimum over p of
(pos[q] - pos[p])^2 + d2[.., p] for all rows at once: a squared-gap table
broadcast against blocks of rows into one reused buffer. That costs
O(N * n) per axis of length n, and the buffer and the gap-table chunk
each hold at most max(2^18, n) float64 values (2 MiB on any axis up to
2^18 long), whatever the grid size. ``edt_bruteforce`` is the
independent O(N * |sources|) reference used to cross-check it; the two
are deliberately kept as separate code paths.

Distances are measured between pixel centers. A degenerate request
(no source pixels) yields the grid's sentinel distance everywhere: the
sum of axis extents weighted by spacing, strictly larger than any real
pixel-to-pixel distance on the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ValidationError

from .core import MAX_SPATIAL_RANK


def as_mask(mask: np.ndarray) -> np.ndarray:
    """Coerce to a boolean mask, rejecting anything but 0/1 values."""
    m = np.asarray(mask)
    if m.ndim < 1 or m.ndim > MAX_SPATIAL_RANK:
        raise ValidationError(f"mask rank must be 1..{MAX_SPATIAL_RANK}, got {m.ndim}")
    if m.size == 0:
        raise ValidationError("mask is empty")
    if m.dtype == bool:
        return m
    vals = np.unique(m)
    if not np.isin(vals, (0, 1)).all():
        raise ValidationError(f"mask values must be 0/1, found {vals[:8]}")
    return m.astype(bool)


def as_spacing(spacing, ndim: int) -> tuple[float, ...]:
    """Normalize a spacing argument to a tuple of positive floats."""
    if spacing is None:
        return (1.0,) * ndim
    sp = tuple(float(x) for x in np.atleast_1d(spacing))
    if len(sp) != ndim:
        raise ValidationError(f"spacing has {len(sp)} entries for a rank-{ndim} grid")
    if any(not np.isfinite(x) or x <= 0 for x in sp):
        raise ValidationError(f"spacing entries must be positive and finite, got {sp}")
    return sp


def sentinel_value(shape: tuple[int, ...], spacing=None) -> float:
    """Distance reported for unreachable queries; exceeds any real distance."""
    sp = as_spacing(spacing, len(shape))
    return float(sum(n * s for n, s in zip(shape, sp)))


# Cap on the float64 values one broadcast block holds (2 MiB). The blocked
# minimum reuses one buffer of this size per axis. Transforming a 64^3 mask
# and its complement raised peak RSS by 2.6 MiB at this cap and by 35 MiB at
# a 16x larger one, against a peak near 56 MiB for a whole CLI dt run.
_BLOCK_VALUES = 1 << 18


def _scan_first_axis(src: np.ndarray, step: float) -> np.ndarray:
    """Squared distance along axis 0 to the nearest source in the same column.

    Forward and backward scans carry the index of the last source seen;
    columns with no source on one side read the appended inf position.
    """
    n = src.shape[0]
    idx = np.arange(n).reshape((n,) + (1,) * (src.ndim - 1))
    pos = np.arange(n, dtype=np.float64) * step
    ext = np.append(pos, np.inf)  # index -1 and index n both read inf
    before = np.maximum.accumulate(np.where(src, idx, -1), axis=0)
    after = np.minimum.accumulate(np.where(src, idx, n)[::-1], axis=0)[::-1]
    here = pos.reshape(idx.shape)
    return np.minimum((here - ext[before]) ** 2, (ext[after] - here) ** 2)


def _min_plus_axis(d2: np.ndarray, axis: int, step: float) -> np.ndarray:
    """out[.., q] = min_p (pos[q] - pos[p])^2 + d2[.., p] along one axis.

    Rows are processed in blocks, broadcast against a chunk of the squared-gap
    table into one reused buffer of at most _BLOCK_VALUES values (at least
    one gap row); axes up to 512 long take the whole table in one chunk.
    """
    moved = np.moveaxis(d2, axis, -1)
    n = moved.shape[-1]
    rows = np.ascontiguousarray(moved).reshape(-1, n)
    out = np.empty_like(rows)
    pos = np.arange(n, dtype=np.float64) * step
    q_chunk = max(1, min(n, _BLOCK_VALUES // n))
    r_block = max(1, _BLOCK_VALUES // (q_chunk * n))
    buf = np.empty((min(r_block, rows.shape[0]), q_chunk, n))
    for q0 in range(0, n, q_chunk):
        gap = (pos[q0:q0 + q_chunk, None] - pos) ** 2
        for r0 in range(0, rows.shape[0], r_block):
            block = rows[r0:r0 + r_block]
            b = buf[:block.shape[0], :gap.shape[0]]
            np.add(block[:, None, :], gap, out=b)
            b.min(axis=-1, out=out[r0:r0 + r_block, q0:q0 + q_chunk])
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def edt(source: np.ndarray, spacing=None) -> np.ndarray:
    """Exact Euclidean distance from every pixel to the nearest source pixel.

    An empty source set yields the sentinel distance everywhere.
    """
    src = as_mask(source)
    sp = as_spacing(spacing, src.ndim)
    if not src.any():
        return np.full(src.shape, sentinel_value(src.shape, sp))
    d2 = _scan_first_axis(src, sp[0])
    for ax in range(1, src.ndim):
        d2 = _min_plus_axis(d2, ax, sp[ax])
    return np.sqrt(d2)


def edt_bruteforce(source: np.ndarray, spacing=None) -> np.ndarray:
    """Reference distance transform: explicit minimum over all source pixels."""
    src = as_mask(source)
    sp = as_spacing(spacing, src.ndim)
    if not src.any():
        return np.full(src.shape, sentinel_value(src.shape, sp))
    scale = np.asarray(sp, dtype=np.float64)
    sources = np.argwhere(src) * scale  # (M, ndim)
    axes = [np.arange(n, dtype=np.float64) * s for n, s in zip(src.shape, sp)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # dims + (ndim,)
    diff = grid[..., None, :] - sources  # dims + (M, ndim)
    d2 = np.einsum("...md,...md->...m", diff, diff).min(axis=-1)
    return np.sqrt(d2)


def unsigned_boundary_distance(mask: np.ndarray, spacing=None) -> np.ndarray:
    """Distance to the opposite region: inside pixels measure to the nearest
    background pixel, outside pixels to the nearest foreground pixel.

    Degenerate masks (no boundary) get the sentinel distance everywhere.
    """
    m = as_mask(mask)
    sp = as_spacing(spacing, m.ndim)
    if m.all() or not m.any():
        return np.full(m.shape, sentinel_value(m.shape, sp))
    return np.where(m, edt(~m, sp), edt(m, sp))


def level_set(mask: np.ndarray, spacing=None) -> np.ndarray:
    """Signed distance map: negative inside the mask, positive outside.

    Because distances are between pixel centers, a non-degenerate mask has
    |phi| >= min(spacing) everywhere — the zero level lives between pixels.
    Degenerate masks map to a constant signed sentinel (negative when the
    mask covers everything).
    """
    m = as_mask(mask)
    sp = as_spacing(spacing, m.ndim)
    if m.all():
        return np.full(m.shape, -sentinel_value(m.shape, sp))
    if not m.any():
        return np.full(m.shape, sentinel_value(m.shape, sp))
    d = unsigned_boundary_distance(m, sp)
    return np.where(m, -d, d)


def boundary_penalty_map(g_onehot: np.ndarray, spacing=None) -> np.ndarray:
    """Per-class penalty in [0, 1], largest right at each class boundary.

    For every class channel the unsigned boundary distance is inverted by
    its own maximum: D = 1 - dt / max(dt). Degenerate channels (no
    boundary) get zero penalty. The map is scale-invariant in the spacing.
    """
    g = np.asarray(g_onehot, dtype=np.float64)
    if g.ndim < 2 or g.shape[-1] < 2:
        raise ValidationError(f"expected dims + (C>=2,) one-hot, got shape {g.shape}")
    sp = as_spacing(spacing, g.ndim - 1)
    out = np.zeros_like(g)
    for c in range(g.shape[-1]):
        mask = g[..., c] >= 0.5
        if mask.all() or not mask.any():
            continue  # degenerate class: zero penalty
        dt = unsigned_boundary_distance(mask, sp)
        peak = dt.max()
        if peak > 0:
            out[..., c] = 1.0 - dt / peak
    return out


def hausdorff_exact(g_mask: np.ndarray, s_mask: np.ndarray, spacing=None) -> float:
    """Symmetric Hausdorff distance between two nonempty pixel sets."""
    g = as_mask(g_mask)
    s = as_mask(s_mask)
    if g.shape != s.shape:
        raise ValidationError(f"mask shapes differ: {g.shape} vs {s.shape}")
    sp = as_spacing(spacing, g.ndim)
    for name, m in (("first", g), ("second", s)):
        if not m.any():
            raise DegenerateInputError(f"Hausdorff distance undefined: {name} mask is empty")
    d_to_s = edt(s, sp)
    d_to_g = edt(g, sp)
    return float(max(d_to_s[g].max(), d_to_g[s].max()))
