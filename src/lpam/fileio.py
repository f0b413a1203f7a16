"""Flat binary containers for extractor weights and 2-d arrays.

Both formats are little-endian with an 8-byte magic string and are
required to round-trip bit-exactly.
"""

from __future__ import annotations

import struct

import numpy as np

WEIGHTS_MAGIC = b"FEXWTS01"
ARRAY_MAGIC = b"ARRDAT01"

_DTYPE_TAGS = {
    np.dtype(np.float64): b"f64 ",
    np.dtype(np.complex128): b"c128",
    np.dtype(np.bool_): b"bool",
}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


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
    pairs) and bool (stored as u8).
    """
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 2:
        raise ValueError("only 2-d arrays are supported")
    if arr.dtype not in _DTYPE_TAGS:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(ARRAY_MAGIC)
        fh.write(_DTYPE_TAGS[arr.dtype])
        fh.write(struct.pack("<2i", arr.shape[0], arr.shape[1]))
        if arr.dtype == np.bool_:
            fh.write(arr.astype("<u1").tobytes())
        elif arr.dtype == np.complex128:
            fh.write(arr.astype("<c16").tobytes())
        else:
            fh.write(arr.astype("<f8").tobytes())


def read_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(8) != ARRAY_MAGIC:
            raise FormatError(f"bad magic in array file {path}")
        tag = fh.read(4)
        if tag not in _TAG_DTYPES:
            raise FormatError(f"unknown dtype tag {tag!r} in {path}")
        rows, cols = struct.unpack("<2i", _must_read(fh, 8, path))
        _check_dims((rows, cols), path)
        dtype = _TAG_DTYPES[tag]
        if dtype == np.dtype(np.bool_):
            raw = np.frombuffer(_must_read(fh, rows * cols, path), dtype="<u1")
            arr = raw.astype(bool)
        elif dtype == np.dtype(np.complex128):
            raw = np.frombuffer(_must_read(fh, rows * cols * 16, path), dtype="<c16")
            arr = raw.astype(np.complex128)
        else:
            raw = np.frombuffer(_must_read(fh, rows * cols * 8, path), dtype="<f8")
            arr = raw.astype(np.float64)
        if fh.read(1):
            raise FormatError(f"trailing bytes in array file {path}")
    return arr.reshape(rows, cols)


def _check_dims(dims: tuple[int, ...], path) -> None:
    if min(dims) < 0:
        raise FormatError(f"negative dimension in header of {path}: {dims}")


def _must_read(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise FormatError(f"truncated file {path}")
    return data
