"""Every file lpam reads or writes: binary weights and arrays, JSON
configs and reports, and the solver's trace CSV.

Files are opened in binary mode and text is ASCII, so no byte or message
depends on the locale, and every format round-trips bit-exactly.  A reader
refuses bad content with :class:`FormatError` naming the file, and lets an
``OSError``, such as a missing file, through.
"""

from __future__ import annotations

import json
import math
import os
import re
import reprlib
import struct
from dataclasses import dataclass, fields
from typing import Sequence

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
    """The file does not conform to its format."""


def write_weights(path, weights: list[np.ndarray]) -> None:
    """Weights container, little-endian: 8-byte magic, layer count, then
    per layer the shape ints (in_ch, out_ch, kh, kw) and row-major float64 data."""
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
    """The layers of a weights container; every kernel entry must be finite."""
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
            if not np.isfinite(data).all():
                raise FormatError(f"non-finite kernel entry in weights file {path}")
            weights.append(data.reshape(out_ch, in_ch, kh, kw).astype(np.float64))
        if fh.read(1):
            raise FormatError(f"trailing bytes in weights file {path}")
    return weights


def write_array(path, arr: np.ndarray) -> None:
    """2-d array container, little-endian: 8-byte magic, dtype tag, int32 (rows, cols), data.

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


def read_json(path):
    """The value in JSON file ``path``, such as a run configuration;
    undecodable, malformed or too deeply nested JSON raises
    :class:`FormatError`."""
    with open(path, "rb") as fh:  # json finds UTF-8, -16 or -32 itself
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def json_text(obj, **kwargs) -> str:
    """``obj`` as standard JSON with sorted keys: a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)


def write_json(path, obj) -> None:
    """``obj`` as :func:`json_text` indented by 2, then a newline; a value
    that JSON cannot hold raises before the file is opened."""
    text = json_text(obj, indent=2)  # ASCII: json escapes every other character
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii") + b"\n")


@dataclass
class IterateRecord:
    """One row of the solver trace."""

    k: int
    eps: float
    phi: float  # objective at the accepted new point, current eps
    grad_norm: float  # gradient norm at the accepted new point, current eps
    branch: str  # "u" | "v"
    ls_count: int
    decrease: float  # phi(X^k) - phi(X^{k+1}) at current eps
    reduced: bool  # smoothing parameter reduced after this iteration
    phi_pre: float  # objective at the pre-step point, current eps
    grad_norm_pre: float  # gradient norm at the pre-step point, current eps


# the trace columns are the record's fields in declaration order
_FIELDS = fields(IterateRecord)
_HEADER = [f.name for f in _FIELDS]
_HEADER_TEXT = ",".join(_HEADER)
_HEADER_LINE = _HEADER_TEXT + "\r\n"
# one row as the writer formats it: eps, the pair phi,grad_norm and the
# pair phi_pre,grad_norm_pre come in as text, each formatted by %.17g
_ROW_FORMAT = "%d,%s,%s,%s,%d,%.17g,%d,%s\r\n"
# per field type, a cell's bytes as the writer spells them and its read: a
# number is a digit, after a minus sign for a negative one, then digits, '.',
# 'e' and signs (int() and float() alone would also read 0_3, ' 1' or +1)
_WRITTEN_CELLS = {
    "int": (rb"-?[0-9]+", int),
    "float": (rb"-?[0-9][0-9.e+-]*", float),
    "str": (rb"[uv]", bytes.decode),
    "bool": (rb"[01]", b"1".__eq__),
}
_COLUMNS = [(f, re.compile(_WRITTEN_CELLS[f.type][0]), _WRITTEN_CELLS[f.type][1]) for f in _FIELDS]
_WRITTEN_ROW = re.compile(b",".join(_WRITTEN_CELLS[f.type][0] for f in _FIELDS))


def write_trace_csv(trace: Sequence[IterateRecord], path) -> None:
    """Write the per-iteration trace as ASCII in one write, a ``\\r\\n``
    after each line; floats are written by ``%.17g``, so they read back bit
    for bit.  A row whose ``eps``, ``phi_pre`` and ``grad_norm_pre`` are the
    very objects of the previous row's ``eps``, ``phi`` and ``grad_norm``, as
    the solver carries them over, reuses their text; objects, not values,
    are compared, so ``0.0`` never takes the text of ``-0.0``."""
    lines = [_HEADER_LINE]
    eps = phi = grad_norm = object()  # the previous row's, whose text is at hand
    for r in trace:
        if r.eps is eps and r.phi_pre is phi and r.grad_norm_pre is grad_norm:
            pre = pair
        else:
            eps_text = "%.17g" % r.eps
            pre = "%.17g,%.17g" % (r.phi_pre, r.grad_norm_pre)
        eps, phi, grad_norm = r.eps, r.phi, r.grad_norm
        pair = "%.17g,%.17g" % (phi, grad_norm)
        lines.append(
            _ROW_FORMAT % (r.k, eps_text, pair, r.branch, r.ls_count, r.decrease, r.reduced, pre)
        )
    with open(path, "wb") as fh:
        fh.write("".join(lines).encode("ascii"))


def _row(line: bytes, k: int) -> None:
    """Raise ``ValueError`` naming the first cell, in column order, that
    row ``k`` of a trace may not hold; the cell is quoted in ASCII."""
    cells = line.split(b",")
    if len(cells) != len(_FIELDS):
        raise ValueError(f"expected {len(_FIELDS)} cells, found {len(cells)}")
    for (f, spelling, read), cell in zip(_COLUMNS, cells):
        try:
            x = read(cell) if spelling.fullmatch(cell) else None
        except ValueError:  # such as 1-2 or 1e, in a number's characters
            x = None
        if x is None:
            why = "is not spelled as a trace spells it"
        elif f.type == "float" and not math.isfinite(x):
            why = "is not finite"
        elif f.name == "k" and x != k:
            why = f"is not the row's k {k}"
        elif f.name == "eps" and x <= 0:
            why = "is not positive"
        elif f.name in ("ls_count", "grad_norm", "grad_norm_pre") and x < 0:
            why = "is negative"
        else:
            continue
        quoted = reprlib.repr(cell.decode("latin-1")).encode("ascii", "backslashreplace")
        raise ValueError(f"{f.name} {quoted.decode()} {why}")


class _Floats(dict):
    """Cell bytes to float, each cell converted at its first lookup."""

    def __missing__(self, cell: bytes) -> float:
        x = self[cell] = float(cell)
        return x


def _spelled_records(rows: list[bytes]) -> list[IterateRecord] | None:
    """The records of trace rows that :data:`_WRITTEN_ROW` matches,
    converted column by column; or None if a cell fails its read or its
    check."""
    if not rows:
        return []
    try:
        k, eps, phi_text, gn_text, branch, ls_count, decrease, reduced, phi_pre, gn_pre = zip(
            *[line.split(b",") for line in rows]
        )
        k, ls_count = list(map(int, k)), list(map(int, ls_count))
        phi, gn, decrease = [list(map(float, c)) for c in (phi_text, gn_text, decrease)]
        # eps repeats between reductions, and phi_pre and grad_norm_pre
        # repeat the previous row's phi and grad_norm in a row that carries
        # them over, so each cell in these columns is converted once
        eps = list(map(_Floats().__getitem__, eps))
        phi_pre = list(map(_Floats(zip(phi_text, phi)).__getitem__, phi_pre))
        gn_pre = list(map(_Floats(zip(gn_text, gn)).__getitem__, gn_pre))
    except ValueError:  # a cell such as 1-2 or 1e
        return None
    floats = (eps, phi, gn, decrease, phi_pre, gn_pre)
    if not (-math.inf < min(map(min, floats)) and max(map(max, floats)) < math.inf):
        return None
    if k != list(range(len(k))) or min(eps) <= 0 or min(min(ls_count), min(gn), min(gn_pre)) < 0:
        return None
    branch, reduced = map(bytes.decode, branch), map(b"1".__eq__, reduced)
    return list(
        map(IterateRecord, k, eps, phi, gn, branch, ls_count, decrease, reduced, phi_pre, gn_pre)
    )


def read_trace_csv(path) -> list[IterateRecord]:
    """Parse a trace in exactly the grammar :func:`write_trace_csv` writes,
    in ASCII bytes, whatever the locale, with lines ended by ``\\r\\n`` or
    ``\\n``, the last one optionally.  ``k`` must read 0, 1, 2, ... in row
    order, floats must be finite, ``eps`` positive and ``ls_count``,
    ``grad_norm`` and ``grad_norm_pre`` not negative.  Any other trace, such
    as one with a quoted cell, a lone ``\\r`` or a byte outside ASCII, raises
    :class:`FormatError` naming the file, its first bad row and,
    for a bad cell, its column.

    Every well-formed trace takes one route: each line is matched against
    :data:`_WRITTEN_ROW`, then the rows are converted and checked column by
    column.  Only a refused trace is gone through again, row by row, to
    name its first bad row; the cell is quoted in ASCII, in at most 30
    characters, so the message is the same in every locale."""
    with open(path, "rb") as fh:
        data = fh.read()
    # per line: one match over the whole file keeps a 1.2 KB frame per row
    lines = data.replace(b"\r\n", b"\n").split(b"\n")
    if not lines[-1]:
        lines.pop()  # after the final line end
    if lines[:1] != [_HEADER_TEXT.encode()]:
        raise FormatError(f"malformed trace row 1 in {path}: the header is not {_HEADER_TEXT}")
    rows = lines[1:]
    if all(map(_WRITTEN_ROW.fullmatch, rows)) and (records := _spelled_records(rows)) is not None:
        return records
    for k, line in enumerate(rows):  # a row is malformed: name the first
        try:
            _row(line, k)
        except ValueError as exc:
            raise FormatError(f"malformed trace row {k + 2} in {path}: {exc}") from exc
    raise AssertionError(f"the rows of {path} pass every check that their columns fail")
