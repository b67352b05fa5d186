"""Binary tensor container and PGM mask import.

Container layout: magic "NTF1", one dtype byte (1 = uint8, 2 = float32,
3 = float64), one ndim byte, two reserved zero bytes, then ndim little-
endian uint32 dims followed by the row-major little-endian payload (last
axis fastest). Payload length must match exactly; trailing bytes are an
error. Diagnostics carry a stable error code plus the byte offset of the
problem.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .core import over_classes, validate_labels, validate_prob
from .errors import TensorFileError, ValidationError

MAGIC = b"NTF1"
_CODE_TO_DTYPE = {1: np.dtype("<u1"), 2: np.dtype("<f4"), 3: np.dtype("<f8")}
MAX_NDIM = 4  # up to 3 spatial axes plus one class axis


def write_tensor(path, array: np.ndarray) -> None:
    """Write an array as an NTF1 file (uint8, float32, or float64)."""
    arr = np.asarray(array)
    if arr.dtype == bool:
        arr = arr.astype(np.uint8)
    code = next((c for c, dtype in _CODE_TO_DTYPE.items() if dtype == arr.dtype), None)
    if code is None:
        raise ValidationError(f"unsupported tensor dtype {arr.dtype}; use u8/f32/f64")
    if not (1 <= arr.ndim <= MAX_NDIM):
        raise ValidationError(f"tensor rank must be 1..{MAX_NDIM}, got {arr.ndim}")
    if arr.size == 0:
        raise ValidationError("refusing to write an empty tensor")
    header = MAGIC + bytes([code, arr.ndim, 0, 0])
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path, expect: str = "any", num_classes: int | None = None) -> np.ndarray:
    """Read an NTF1 file.

    ``expect`` refines validation: "labels" (uint8 class ids, optionally
    range-checked against num_classes), "mask" (uint8 zeros/ones, returned
    boolean), "probs" (float map validated onto the simplex and upcast to
    float64), or "any" (raw).
    """
    if expect not in ("any", "labels", "mask", "probs"):
        raise ValidationError(f"unknown expectation {expect!r}")
    data = Path(path).read_bytes()
    name = str(path)
    if len(data) < 8:
        raise TensorFileError(
            f"{name}: truncated header — {len(data)} bytes, need at least 8", "truncated"
        )
    if data[:4] != MAGIC:
        raise TensorFileError(f"{name}: bad magic {data[:4]!r} at offset 0", "bad-magic")
    code = data[4]
    if code not in _CODE_TO_DTYPE:
        raise TensorFileError(f"{name}: unknown dtype code {code} at offset 4", "bad-dtype")
    ndim = data[5]
    if not (1 <= ndim <= MAX_NDIM):
        raise TensorFileError(
            f"{name}: ndim {ndim} at offset 5 outside 1..{MAX_NDIM}", "bad-ndim"
        )
    if data[6:8] != b"\x00\x00":
        raise TensorFileError(f"{name}: reserved bytes at offset 6 must be zero", "bad-reserved")
    dims_end = 8 + 4 * ndim
    if len(data) < dims_end:
        raise TensorFileError(
            f"{name}: truncated dims — file ends at offset {len(data)}, need {dims_end}",
            "truncated",
        )
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    if any(d == 0 for d in dims):
        raise TensorFileError(f"{name}: zero-length dimension in {dims}", "bad-dims")
    dtype = _CODE_TO_DTYPE[code]
    expected = math.prod(dims) * dtype.itemsize
    actual = len(data) - dims_end
    if actual < expected:
        raise TensorFileError(
            f"{name}: payload truncated at offset {len(data)} — expected {expected} bytes, "
            f"got {actual}",
            "truncated",
        )
    if actual > expected:
        raise TensorFileError(
            f"{name}: {actual - expected} trailing bytes after offset {dims_end + expected}",
            "trailing-bytes",
        )
    arr = np.frombuffer(data, dtype=dtype, count=math.prod(dims), offset=dims_end).reshape(dims)

    if expect in ("labels", "mask") and code != 1:
        raise TensorFileError(
            f"{name}: {expect} must be stored as uint8, found dtype code {code}",
            "dtype-mismatch",
        )
    if expect == "labels":
        labels = arr.astype(np.int64)
        if num_classes is not None:
            try:
                validate_labels(labels, num_classes)
            except ValidationError as exc:
                raise TensorFileError(f"{name}: {exc}", "label-range") from exc
        return labels
    if expect == "mask":
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            idx = np.argwhere(bad)[0]
            raise TensorFileError(
                f"{name}: mask value {arr[tuple(idx)]} at index "
                f"{tuple(int(i) for i in idx)} is not 0/1",
                "bad-mask-value",
            )
        return arr != 0
    if expect == "probs":
        if code == 1:
            raise TensorFileError(
                f"{name}: probabilities must be float32/float64, found uint8",
                "dtype-mismatch",
            )
        if ndim < 2:
            raise TensorFileError(
                f"{name}: probability tensors need a trailing class axis (rank >= 2)",
                "bad-shape",
            )
        tol = 1e-6 if code == 2 else 1e-9
        try:
            s = validate_prob(arr.astype(np.float64), tol=tol)
        except ValidationError as exc:
            raise TensorFileError(f"{name}: {exc}", "simplex") from exc
        if code == 2:
            # float32 storage: renormalize per pixel after the looser check
            s = s / over_classes(np.add, s)
        return s
    return arr.copy()


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255); nonzero pixels become True."""
    data = Path(path).read_bytes()
    name = str(path)
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos]
            if ch in b" \t\r\n":
                pos += 1
            elif ch == ord("#"):
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        if start == pos:
            raise TensorFileError(f"{name}: truncated PGM header at offset {start}", "truncated")
        return data[start:pos]

    magic = token()
    if magic == b"P2":
        raise TensorFileError(f"{name}: ASCII PGM (P2) not supported, use P5", "unsupported-pgm")
    if magic != b"P5":
        raise TensorFileError(f"{name}: bad PGM magic {magic!r} at offset 0", "bad-magic")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise TensorFileError(f"{name}: non-numeric PGM header field", "bad-header") from None
    if maxval != 255:
        raise TensorFileError(
            f"{name}: only maxval 255 supported, got {maxval}", "unsupported-pgm"
        )
    if width < 1 or height < 1:
        raise TensorFileError(f"{name}: bad PGM dimensions {width}x{height}", "bad-dims")
    pos += 1  # exactly one whitespace byte separates header from raster
    expected = width * height
    if len(data) - pos < expected:
        raise TensorFileError(
            f"{name}: PGM raster truncated at offset {len(data)} — expected {expected} bytes, "
            f"got {len(data) - pos}",
            "truncated",
        )
    raster = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return (raster.reshape(height, width) != 0).copy()


def file_digest(path) -> str:
    """Hex SHA-256 of a file, for report provenance."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
