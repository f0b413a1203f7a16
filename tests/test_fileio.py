import struct

import numpy as np
import pytest

from lpam.fileio import (
    FormatError,
    read_array,
    read_weights,
    write_array,
    write_weights,
)


def test_weights_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    weights = [
        rng.normal(size=(4, 2, 3, 3)),
        rng.normal(size=(4, 4, 3, 3)),
        rng.normal(size=(1, 4, 1, 1)),
    ]
    path = tmp_path / "w.bin"
    write_weights(path, weights)
    back = read_weights(path)
    assert len(back) == 3
    for a, b in zip(weights, back):
        assert a.shape == b.shape
        assert np.array_equal(a, b)  # bit exact


def test_weights_write_roundtrip_stable_bytes(tmp_path):
    weights = [np.arange(4.0).reshape(2, 2, 1, 1)]
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_weights(p1, weights)
    write_weights(p2, read_weights(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weights_reject_non_finite_entries(tmp_path, bad):
    weights = [np.ones((3, 2, 3, 3)), np.ones((1, 3, 1, 1))]
    weights[0][2, 1, 0, 2] = bad
    path = tmp_path / "w.bin"
    write_weights(path, weights)
    with pytest.raises(FormatError, match="non-finite kernel entry") as info:
        read_weights(path)
    assert str(path) in str(info.value)


def test_weights_reject_non_4d(tmp_path):
    with pytest.raises(ValueError):
        write_weights(tmp_path / "w.bin", [np.zeros((2, 2))])


@pytest.mark.parametrize(
    "arr",
    [
        np.random.default_rng(1).normal(size=(5, 7)),
        np.random.default_rng(2).normal(size=(3, 3))
        + 1j * np.random.default_rng(3).normal(size=(3, 3)),
        np.random.default_rng(4).random((6, 4)) > 0.5,
    ],
    ids=["f64", "c128", "bool"],
)
def test_array_roundtrip_bit_exact(tmp_path, arr):
    path = tmp_path / "a.arr"
    write_array(path, arr)
    back = read_array(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)
    # second write of the read-back data is byte identical
    path2 = tmp_path / "b.arr"
    write_array(path2, back)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "arr, tag, payload",
    [
        (np.array([[1.5, -2.0, 0.25]]), b"f64 ", struct.pack("<3d", 1.5, -2.0, 0.25)),
        (np.array([[1 + 2j], [0.5 - 0.25j]]), b"c128", struct.pack("<4d", 1.0, 2.0, 0.5, -0.25)),
        (np.array([[True, False], [False, True]]), b"bool", struct.pack("<4B", 1, 0, 0, 1)),
    ],
    ids=["f64", "c128", "bool"],
)
def test_array_golden_bytes(tmp_path, arr, tag, payload):
    path = tmp_path / "a.arr"
    write_array(path, arr)
    golden = b"ARRDAT01" + tag + struct.pack("<2i", *arr.shape) + payload
    assert path.read_bytes() == golden
    back = read_array(path)
    assert back.dtype == arr.dtype and np.array_equal(back, arr)


def test_array_rejects_unsupported(tmp_path):
    with pytest.raises(ValueError):
        write_array(tmp_path / "a.arr", np.zeros(4))
    with pytest.raises(ValueError):
        write_array(tmp_path / "a.arr", np.zeros((2, 2), dtype=np.int32))


def test_bad_magic(tmp_path):
    path = tmp_path / "a.arr"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(FormatError, match="magic"):
        read_array(path)
    with pytest.raises(FormatError, match="magic"):
        read_weights(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "a.arr"
    write_array(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated"):
        read_array(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "a.arr"
    write_array(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        read_array(path)


def test_unknown_dtype_tag(tmp_path):
    path = tmp_path / "a.arr"
    write_array(path, np.ones((2, 2)))
    data = bytearray(path.read_bytes())
    data[8:12] = b"i32 "
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="dtype tag"):
        read_array(path)


def test_bool_payload_byte_other_than_0_or_1(tmp_path):
    path = tmp_path / "mask.arr"
    write_array(path, np.array([[True, True]]))
    data = bytearray(path.read_bytes())
    data[-1] = 0x60
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="bool payload"):
        read_array(path)


# the last inputs are huge dims: the payload they imply is far larger than the file
@pytest.mark.parametrize("dims", [(-2, -2), (-1, 4), (2**31 - 1, 2**31 - 1)])
def test_array_negative_dims(tmp_path, dims):
    path = tmp_path / "a.arr"
    write_array(path, np.ones((2, 2)))
    data = bytearray(path.read_bytes())
    data[12:20] = struct.pack("<2i", *dims)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="negative" if min(dims) < 0 else "truncated"):
        read_array(path)


@pytest.mark.parametrize(
    "dims", [(-2, -1, 1, 1), (2, 1, -1, 1), (2**31 - 1,) * 4, (1, 2**31 - 1, 2**31 - 1, 1)]
)
def test_weights_negative_dims(tmp_path, dims):
    path = tmp_path / "w.bin"
    write_weights(path, [np.ones((1, 2, 1, 1))])
    data = bytearray(path.read_bytes())
    data[12:28] = struct.pack("<4i", *dims)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="negative" if min(dims) < 0 else "truncated"):
        read_weights(path)
