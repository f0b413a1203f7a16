"""Flat binary containers for extractor weights and 2-d arrays.

Both formats are little-endian with an 8-byte magic string and are
required to round-trip bit-exactly.
"""

from __future__ import annotations

import os
import struct

import numpy as np

WEIGHTS_MAGIC = b"FEXWTS01"
ARRAY_MAGIC = b"ARRDAT01"

# array dtype -> (header tag, little-endian dtype of the payload)
_WIRE = {
    np.dtype(np.float64): (b"f64 ", np.dtype("<f8")),
    np.dtype(np.complex128): (b"c128", np.dtype("<c16")),
    np.dtype(np.bool_): (b"bool", np.dtype("<u1")),
}
_BY_TAG = {tag: (dtype, wire) for dtype, (tag, wire) in _WIRE.items()}


class FormatError(ValueError):
    """The file does not conform to the expected binary layout."""


def write_weights(path, weights: list[np.ndarray]) -> None:
    """Weights container: magic, layer count, then per layer the shape
    ints (in_ch, out_ch, kh, kw) followed by row-major float64 data."""
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", len(weights)))
        for w in weights:
            w = np.ascontiguousarray(w, dtype=np.float64)
            if w.ndim != 4:
                raise ValueError("each layer must be a 4-d (out,in,kh,kw) array")
            out_ch, in_ch, kh, kw = w.shape
            fh.write(struct.pack("<4i", in_ch, out_ch, kh, kw))
            fh.write(w.astype("<f8").tobytes())


def read_weights(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(8) != WEIGHTS_MAGIC:
            raise FormatError(f"bad magic in weights file {path}")
        (count,) = struct.unpack("<I", _must_read(fh, 4, path))
        weights = []
        for _ in range(count):
            in_ch, out_ch, kh, kw = struct.unpack("<4i", _must_read(fh, 16, path))
            _check_dims((in_ch, out_ch, kh, kw), path)
            size = out_ch * in_ch * kh * kw * 8
            data = np.frombuffer(_must_read(fh, size, path), dtype="<f8")
            weights.append(data.reshape(out_ch, in_ch, kh, kw).astype(np.float64))
        if fh.read(1):
            raise FormatError(f"trailing bytes in weights file {path}")
    return weights


def write_array(path, arr: np.ndarray) -> None:
    """2-d array container: magic, dtype tag, int32 (rows, cols), raw data.

    Supported dtypes: float64, complex128 (stored as interleaved real
    pairs) and bool (stored as u8 bytes that are each 0 or 1).
    """
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 2:
        raise ValueError("only 2-d arrays are supported")
    if arr.dtype not in _WIRE:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    tag, wire = _WIRE[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(ARRAY_MAGIC)
        fh.write(tag)
        fh.write(struct.pack("<2i", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype(wire).tobytes())


def read_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(8) != ARRAY_MAGIC:
            raise FormatError(f"bad magic in array file {path}")
        tag = fh.read(4)
        if tag not in _BY_TAG:
            raise FormatError(f"unknown dtype tag {tag!r} in {path}")
        dtype, wire = _BY_TAG[tag]
        rows, cols = struct.unpack("<2i", _must_read(fh, 8, path))
        _check_dims((rows, cols), path)
        raw = np.frombuffer(_must_read(fh, rows * cols * wire.itemsize, path), dtype=wire)
        # a bool payload byte is 0 or 1; any other would load as True and
        # not round-trip
        if dtype == np.bool_ and np.any(raw > 1):
            raise FormatError(f"bool payload byte other than 0 or 1 in {path}")
        arr = raw.astype(dtype)
        if fh.read(1):
            raise FormatError(f"trailing bytes in array file {path}")
    return arr.reshape(rows, cols)


def _check_dims(dims: tuple[int, ...], path) -> None:
    if min(dims) < 0:
        raise FormatError(f"negative dimension in header of {path}: {dims}")


def _must_read(fh, size: int, path) -> bytes:
    # compare with the bytes left before reading, so a size taken from a
    # hostile header neither overflows read() nor allocates
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(f"truncated file {path}: {size} bytes expected, {left} left")
    return fh.read(size)
