"""Exact Euclidean distance transforms on binary masks.

``edt`` is a from-scratch separable transform (Felzenszwalb & Huttenlocher
2012, with the binary first phase of Meijster et al. 2000; anisotropic
spacing supported). On axis 0, forward and backward scans of the nearest
source index give the squared distance along that axis directly. Every
later axis takes the minimum over p of (pos[q] - pos[p])^2 + d2[.., p],
with pos[p] = p * step. One of two passes computes it, and both give the
same floats as the full minimum over every p:

- The compiled pass (``_minplus.c``, called through ctypes) scans the
  candidates of each query q outward from q and stops a side once the
  squared gap alone exceeds the best value so far, so a query costs
  O(distance to its winning candidate) steps. A row with no finite entry
  is filled with inf up front. It runs whenever the library loaded.
- The numpy pass (``_min_plus_axis``) takes all rows at once, in tiles of
  up to 64 query positions. A block of rows only considers the candidates
  within reach of a tile, a distance bounded by the block's own entries
  there, and every candidate it skips would lose. An axis pass of N
  values costs O(N * min(n, 64 + 2w)) on an axis of length n, where w is
  the reach in pixels, about the distance from a tile to the sources its
  block needs. The buffer and the gap table each hold at most 2^18
  float64 values (2 MiB), whatever the grid size. It runs when the
  library could not be built or loaded, and is the tested reference.

Importing this module builds the library once per source and compiler
flags, with ``cc -O2 -ffp-contract=off -shared -fPIC``, into
``segloss/__pycache__/_minplus-<key>.so``; later imports only load it. If
there is no ``cc``, the directory is read-only or the build fails, the
numpy pass runs instead. ``edt_bruteforce`` is the independent
O(N * |sources|) reference used to cross-check both; it is deliberately
kept as a separate code path.

Distances are measured between pixel centers. A degenerate request
(no source pixels) yields the grid's sentinel distance everywhere: the
sum of axis extents weighted by spacing, strictly larger than any real
pixel-to-pixel distance on the grid.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ValidationError

from .core import MAX_SPATIAL_RANK, check_pair


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


def _mask_pair(g_mask: np.ndarray, s_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two masks of one shape, each through as_mask."""
    g = as_mask(g_mask)
    s = as_mask(s_mask)
    if g.shape != s.shape:
        raise ValidationError(f"mask shapes differ: {g.shape} vs {s.shape}")
    return g, s


def as_spacing(spacing, ndim: int) -> tuple[float, ...]:
    """Normalize a spacing argument to a tuple of positive finite floats, one
    per axis of a rank-``ndim`` grid. Every spacing is checked here alone."""
    if spacing is None:
        return (1.0,) * ndim
    try:  # ragged nesting raises ValueError, an int beyond float range OverflowError
        values = np.atleast_1d(np.asarray(spacing, dtype=object)).tolist()  # rows stay lists
        numeric = all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            for x in values
        )
        sp = tuple(float(x) for x in values) if numeric else None
    except (ValueError, OverflowError):
        sp = None
    if sp is None:
        raise ValidationError(f"spacing must be a non-empty list of numbers: {spacing!r}")
    if len(sp) != ndim:
        raise ValidationError(f"spacing has {len(sp)} entries for a rank-{ndim} grid")
    if any(not math.isfinite(x) or x <= 0 for x in sp):
        raise ValidationError(f"spacing entries must be positive and finite, got {sp}")
    return sp


def sentinel_value(shape: tuple[int, ...], spacing=None) -> float:
    """Distance reported for unreachable queries; exceeds any real distance."""
    sp = as_spacing(spacing, len(shape))
    return float(sum(n * s for n, s in zip(shape, sp)))


# Cap on the float64 values one broadcast block holds (2 MiB), and on one
# gap-table chunk. Each later-axis pass reuses one buffer of this size.
# Transforming a 64^3 ellipsoid mask and its complement (mask loaded from
# disk, no other work) raised peak RSS by 11.2 MiB at this cap, most of it
# the 2 MiB grid-sized arrays of each pass, and by 39.4 MiB at a 16x larger
# cap, against a peak near 56 MiB for a whole CLI dt run.
_BLOCK_VALUES = 1 << 18

# Query positions per tile in the later-axis passes. A wider tile shares
# its candidate window among more queries but bounds its outputs more
# loosely; 64 was no slower than 32 or 128 on 256^2 and 1024^2 masks.
_TILE = 64


def _nearest_set(flags: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Along ``axis``, the index of the nearest set entry at or before each
    position (-1 if none) and at or after it (n if none): forward and
    backward scans that carry the index of the last set entry seen."""
    n = flags.shape[axis]
    idx = np.arange(n).reshape((n,) + (1,) * (flags.ndim - 1 - axis))
    before = np.maximum.accumulate(np.where(flags, idx, -1), axis=axis)
    after = np.minimum.accumulate(np.flip(np.where(flags, idx, n), axis), axis=axis)
    return before, np.flip(after, axis)


def _scan_first_axis(src: np.ndarray, step: float) -> np.ndarray:
    """Squared distance along axis 0 to the nearest source in the same column.

    Columns with no source on one side read the appended inf position.
    """
    n = src.shape[0]
    pos = np.arange(n, dtype=np.float64) * step
    ext = np.append(pos, np.inf)  # index -1 and index n both read inf
    before, after = _nearest_set(src, 0)
    here = pos.reshape((n,) + (1,) * (src.ndim - 1))
    return np.minimum((here - ext[before]) ** 2, (ext[after] - here) ** 2)


def _min_plus_axis(d2: np.ndarray, axis: int, step: float) -> np.ndarray:
    """out[.., q] = min_p (pos[q] - pos[p])^2 + d2[.., p] along one axis.

    Entries of d2 are squared distances: non-negative or inf. Query
    positions go in tiles of at most _TILE, rows in blocks. A block only
    looks at the candidates p within reach of a tile (see _reach): every
    candidate left out exceeds an upper bound on the block's outputs there,
    so the minimum is the same float as over all p. Squared gaps are laid
    out as (p, q) and reduced over p, the buffer's middle axis.
    """
    moved = d2.swapaxes(axis, -1)
    n = moved.shape[-1]
    rows = np.ascontiguousarray(moved).reshape(-1, n)
    out = np.empty_like(rows)
    pos = np.arange(n, dtype=np.float64) * step
    width = min(n, _TILE)
    r_block = max(1, _BLOCK_VALUES // (n * width))
    p_chunk = _BLOCK_VALUES // (r_block * width)  # at least n unless n > 4096
    buf = np.empty((min(r_block, rows.shape[0]), min(n, p_chunk), width))
    starts = range(0, rows.shape[0], r_block)
    tiles = range(0, n, width)
    if width < n:
        q0 = np.asarray(tiles)
        reach = np.maximum.reduceat(_reach(rows, pos, q0), starts, axis=0) / step
        # Candidates more than reach + 1 steps away are left out; the spare
        # step covers rounding in pos and in the square root.
        w = np.minimum(reach, n).astype(np.intp) + 1
        lo = np.maximum(q0 - w, 0).T.tolist()
        hi = np.minimum(q0 + width + w, n).T.tolist()
    else:  # one tile spans the axis: nothing to prune
        lo, hi = [[0] * len(starts)], [[n] * len(starts)]
    for q0, t_lo, t_hi in zip(tiles, lo, hi):
        q1 = min(n, q0 + width)
        t0, t1 = min(t_lo), max(t_hi)
        for c0 in range(t0, t1, p_chunk):  # one chunk unless n > 4096
            c1 = min(t1, c0 + p_chunk)
            gap = (pos[q0:q1] - pos[c0:c1, None]) ** 2
            for r0, p0, p1 in zip(starts, t_lo, t_hi):
                k0, k1 = max(p0, c0), min(p1, c1)
                if k0 >= k1:
                    continue
                block = rows[r0:r0 + r_block, k0:k1, None]
                b = buf[:block.shape[0], :k1 - k0, :q1 - q0]
                np.add(block, gap[k0 - c0:k1 - c0], out=b)
                dst = out[r0:r0 + r_block, q0:q1]
                if k0 == p0:
                    b.min(axis=1, out=dst)
                else:
                    np.minimum(dst, b.min(axis=1), out=dst)
    return out.reshape(moved.shape).swapaxes(axis, -1)


def _reach(rows: np.ndarray, pos: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Per row and tile, the distance beyond which no candidate can win.

    Each output in a tile is at most the row's largest entry there (the
    p = q candidate) and at most its smallest entry plus the squared tile
    span. A row with no finite entry in a tile is bounded through its
    nearest finite entry on either side instead; those scans are only run
    when some tile needs them. A row with no finite entry at all is inf
    everywhere, so any window gives it the same result: its reach is 0.
    """
    n = rows.shape[1]
    ends = np.append(tiles[1:], n)
    span = (pos[ends - 1] - pos[tiles]) ** 2
    low = np.minimum.reduceat(rows, tiles, axis=1)
    bound = np.minimum(np.maximum.reduceat(rows, tiles, axis=1), low + span)
    empty = np.isinf(low)
    if empty.any():
        before, after = _nearest_set(np.isfinite(rows), 1)
        edge = np.ones((rows.shape[0], 1), np.intp)
        left = np.hstack([-edge, before[:, tiles[1:] - 1]])
        right = np.hstack([after[:, ends[:-1]], n * edge])
        # Index -1 and index n read inf positions, so whichever entry is read
        # there, that side's bound is inf.
        ext = np.append(pos, np.inf)
        via_left = np.take_along_axis(rows, left, axis=1) + (pos[ends - 1] - ext[left]) ** 2
        via_right = np.take_along_axis(rows, np.minimum(right, n - 1), axis=1)
        via = np.minimum(via_left, via_right + (ext[right] - pos[tiles]) ** 2)
        bound = np.where(empty, via, bound)
        bound[np.isinf(bound)] = 0.0
    return np.sqrt(bound)


_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _load_min_plus_rows(source: Path, cache: Path):
    """The compiled pass of ``source`` as a ctypes function, or None.

    The library is cached under ``cache`` by a hash of the source, the
    flags and the machine, so a checkout compiles it once. The compiler
    writes a file of its own that then replaces the cache entry in one
    step, so a concurrent import never loads half a library.
    """
    try:
        code = source.read_bytes()
        key = hashlib.sha256(code + repr(_CFLAGS).encode() + platform.machine().encode())
        lib = cache / f"_minplus-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            import subprocess

            cache.mkdir(exist_ok=True)
            tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
            try:
                subprocess.run(["cc", *_CFLAGS, "-o", str(tmp), str(source)],
                               check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib)
            except subprocess.SubprocessError:  # a failed or hung compile
                return None
            finally:
                tmp.unlink(missing_ok=True)
        fn = ctypes.CDLL(str(lib)).min_plus_rows
    except OSError:  # no source or no cc, an unwritable cache, a bad library
        return None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                   ctypes.c_double]
    fn.restype = None
    return fn


# Built at import, not at the first call, so the one-time compile is part of
# start-up and no transform pays for it.
_min_plus_rows = _load_min_plus_rows(Path(__file__).with_name("_minplus.c"),
                                     Path(__file__).with_name("__pycache__"))


def _min_plus(d2: np.ndarray, axis: int, step: float) -> np.ndarray:
    """The later-axis pass: the compiled one if it loaded, else the numpy one."""
    if _min_plus_rows is None:
        return _min_plus_axis(d2, axis, step)
    moved = d2.swapaxes(axis, -1)
    n = moved.shape[-1]
    rows = np.ascontiguousarray(moved, dtype=np.float64).reshape(-1, n)
    out = np.empty_like(rows)
    _min_plus_rows(rows.ctypes.data, out.ctypes.data, rows.shape[0], n, step)
    return out.reshape(moved.shape).swapaxes(axis, -1)


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
        d2 = _min_plus(d2, ax, sp[ax])
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
    return np.where(m, -edt(~m, sp), edt(m, sp))


def unsigned_boundary_distance(mask: np.ndarray, spacing=None) -> np.ndarray:
    """Distance to the opposite region, |level_set|: inside pixels measure
    to the nearest background pixel, outside pixels to the nearest
    foreground pixel.

    Degenerate masks (no boundary) get the sentinel distance everywhere.
    """
    return np.abs(level_set(mask, spacing))


class BoundaryContext:
    """Signed distance maps (level_set) of a ground truth's class channels,
    thresholded at 0.5: every boundary-distance map of it derives from these.
    Each class's phi is computed on first use and kept, so losses sharing a
    context transform each class once, and a class none asks for never.
    ``phi`` and ``dist`` = |phi| are dims + (C,) stacks; ``degenerate`` marks
    channels with no boundary, whose phi is the signed sentinel."""

    def __init__(self, g: np.ndarray, spacing=None):
        g = check_pair(g, g)[0]
        self.spacing = as_spacing(spacing, g.ndim - 1)
        self.masks = g >= 0.5
        flat = self.masks.reshape(-1, g.shape[-1])
        self.degenerate = tuple(bool(d) for d in flat.all(axis=0) | ~flat.any(axis=0))
        self._phi = np.empty(g.shape)
        self._done = [False] * g.shape[-1]

    def signed(self, c: int) -> np.ndarray:
        """phi of class channel c."""
        if not self._done[c]:
            self._phi[..., c] = level_set(self.masks[..., c], self.spacing)
            self._done[c] = True
        return self._phi[..., c]

    @property
    def phi(self) -> np.ndarray:
        for c in range(len(self._done)):
            self.signed(c)
        return self._phi

    @property
    def dist(self) -> np.ndarray:
        return np.abs(self.phi)

    def penalty_map(self) -> np.ndarray:
        """boundary_penalty_map of the ground truth: 1 - |phi| / max|phi| per
        class, zero on degenerate classes."""
        out = np.zeros(self._phi.shape)
        for c, degenerate in enumerate(self.degenerate):
            if not degenerate:
                d = np.abs(self.signed(c))
                out[..., c] = 1.0 - d / d.max()
        return out

    def foreground_distances(self, tag: str = "gt") -> tuple[np.ndarray, tuple[str, ...]]:
        """|phi| of classes 1..C-1 in slots 0..C-2 (the sentinel on a
        degenerate class), and a flag per degenerate class."""
        fg = range(1, len(self._done))
        flags = tuple(f"degenerate-{tag}-class-{c}" for c in fg if self.degenerate[c])
        return np.abs(np.stack([self.signed(c) for c in fg], axis=-1)), flags


def boundary_penalty_map(g_onehot: np.ndarray, spacing=None) -> np.ndarray:
    """Per-class penalty in [0, 1], largest right at each class boundary.

    For every class channel the unsigned boundary distance is inverted by
    its own maximum: D = 1 - dt / max(dt). Degenerate channels (no
    boundary) get zero penalty. The map is scale-invariant in the spacing.
    """
    return BoundaryContext(g_onehot, spacing).penalty_map()


def hausdorff_exact(g_mask: np.ndarray, s_mask: np.ndarray, spacing=None) -> float:
    """Symmetric Hausdorff distance between two nonempty pixel sets."""
    g, s = _mask_pair(g_mask, s_mask)
    sp = as_spacing(spacing, g.ndim)
    for name, m in (("first", g), ("second", s)):
        if not m.any():
            raise DegenerateInputError(f"Hausdorff distance undefined: {name} mask is empty")
    d_to_s = edt(s, sp)
    d_to_g = edt(g, sp)
    return float(max(d_to_s[g].max(), d_to_g[s].max()))
