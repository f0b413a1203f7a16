import hashlib
import itertools
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpam import core, operators
from lpam.extractor import IdentityExtractor
from lpam.objectives import JointRecovery
from lpam.operators import (
    MAX_SIDE,
    Instance,
    InstanceSpec,
    KSpaceData,
    MaskedDft,
    generate_instance,
    radial_mask,
    residual_energy,
    shared_structure_phantom,
    squared_norm,
    uniform_mask,
)
from lpam.solver import LpamConfig, lpam_run

from tests import oracles
from tests.oracles import conv_forward, fresh_pool


def dense_dft_matrix(h, w):
    """Unitary 2-d DFT as an explicit (h*w, h*w) matrix."""
    fh = np.fft.fft(np.eye(h), norm="ortho")
    fw = np.fft.fft(np.eye(w), norm="ortho")
    return np.kron(fh, fw)


def test_forward_matches_dense_matrix():
    rng = np.random.default_rng(0)
    h = w = 8
    mask = uniform_mask(h, w, 0.3, rng)
    op = MaskedDft(mask)
    F = dense_dft_matrix(h, w)
    x = rng.normal(size=h * w)
    spec = (F @ x).reshape(h, w)
    spec[~mask] = 0.0
    assert np.allclose(op.forward(x), spec, atol=1e-10)


def test_fidelity_matches_dense_matrix():
    rng = np.random.default_rng(1)
    h = w = 8
    mask = uniform_mask(h, w, 0.3, rng)
    op = MaskedDft(mask)
    F = dense_dft_matrix(h, w)
    x = rng.normal(size=h * w)
    f = rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))
    f[~mask] = 0.0
    resid = (F @ x).reshape(h, w)
    resid[~mask] = 0.0
    resid -= f
    brute = 0.5 * np.sum(np.abs(resid) ** 2)
    assert op.fidelity(x, f) == pytest.approx(brute, rel=1e-10)


def test_fidelity_zero_at_consistent_data():
    rng = np.random.default_rng(2)
    op = MaskedDft(uniform_mask(8, 8, 0.4, rng))
    x = rng.normal(size=64)
    f = op.forward(x)
    assert op.fidelity(x, f) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(op.grad_fidelity(x, f), 0.0, atol=1e-12)


def test_full_mask_parseval():
    op = MaskedDft(np.ones((4, 4), dtype=bool))
    x = np.arange(16.0)
    assert op.fidelity(x, np.zeros((4, 4))) == pytest.approx(0.5 * np.dot(x, x))
    assert np.allclose(op.grad_fidelity(x, np.zeros((4, 4))), x, atol=1e-10)


def test_full_mask_roundtrip():
    rng = np.random.default_rng(3)
    op = MaskedDft(np.ones((8, 8), dtype=bool))
    x = rng.normal(size=64)
    assert np.allclose(op.adjoint(op.forward(x)), x, atol=1e-10)


def test_adjoint_identity():
    rng = np.random.default_rng(4)
    op = MaskedDft(uniform_mask(8, 8, 0.3, rng))
    for _ in range(50):
        x = rng.normal(size=64)
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lhs = np.real(np.vdot(op.forward(x), np.where(op.mask, y, 0.0)))
        rhs = float(np.dot(x, op.adjoint(y)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_grad_fidelity_finite_differences():
    rng = np.random.default_rng(5)
    op = MaskedDft(uniform_mask(6, 6, 0.5, rng))
    x = rng.normal(size=36)
    f = np.where(op.mask, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 0.0)
    g = op.grad_fidelity(x, f)
    h = 1e-6
    for i in range(0, 36, 5):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (op.fidelity(xp, f) - op.fidelity(xm, f)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_grad_fidelity_nonexpansive():
    rng = np.random.default_rng(6)
    op = MaskedDft(uniform_mask(8, 8, 0.3, rng))
    f = np.where(op.mask, rng.normal(size=(8, 8)) + 0j, 0.0)
    for _ in range(20):
        x, y = rng.normal(size=64), rng.normal(size=64)
        gx, gy = op.grad_fidelity(x, f), op.grad_fidelity(y, f)
        assert np.linalg.norm(gx - gy) <= np.linalg.norm(x - y) + 1e-12


def test_shape_errors():
    op = MaskedDft(np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        op.forward(np.zeros(5))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros((3, 3)))
    for method in (op.fidelity, op.grad_fidelity):
        with pytest.raises(ValueError):
            method(np.zeros(16), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        MaskedDft(np.ones(4, dtype=bool))


# the formulas the one-channel methods are, checked bit for bit: dtype, casts
# of real data and signed zeros included
def ref_forward(mask, x):
    return np.where(mask, np.fft.fft2(x.reshape(mask.shape), norm="ortho"), 0.0)


def ref_adjoint(mask, f):
    return np.real(np.fft.ifft2(np.where(mask, f, 0.0), norm="ortho")).ravel()


def ref_residual(mask, x, f):
    return ref_forward(mask, x) - np.where(mask, f, 0.0)


def assert_fidelity_matches(op, x, f, ref_f):
    """fidelity and grad_fidelity of x against f are the formulas' on
    ref_f bit for bit: the energy of the residual on the mask and the
    adjoint of the full one."""
    resid = ref_residual(op.mask, x, ref_f)
    assert op.fidelity(x, f) == residual_energy(resid[op.mask])
    assert_bits_equal(op.grad_fidelity(x, f), ref_adjoint(op.mask, resid))


def assert_bits_equal(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    gv, rv = got.view(np.float64), ref.view(np.float64)
    assert np.array_equal(gv, rv, equal_nan=True)
    assert np.array_equal(np.signbit(gv), np.signbit(rv))


def draw(rng, shape):
    """A mask, an image with some signed zeros and k-space data nonzero everywhere."""
    mask = rng.random(shape) < 0.4
    x = rng.normal(size=shape[0] * shape[1])
    x[::5] = -0.0
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    f.ravel()[::7] = complex(-0.0, -0.0)
    return mask, x, f


SHAPES = [(8, 8), (5, 7), (6, 9), (9, 6), (1, 1), (1, 5)]


@pytest.mark.parametrize("shape", SHAPES)
def test_transforms_bit_identical_to_fft2(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    for trial in range(3):
        mask, x, f = draw(rng, shape)
        if trial == 1:
            mask[:] = True
        elif trial == 2:
            mask[:] = False
        op = MaskedDft(mask)
        assert_bits_equal(op.forward(x), ref_forward(mask, x))
        assert_bits_equal(op.adjoint(f), ref_adjoint(mask, f))
        assert_fidelity_matches(op, x, f, f)
        # the sampled values, their zero-filled array and its adjoint
        y = op.sample(f)
        assert_bits_equal(y, f[mask])
        assert_bits_equal(op.unsample(y), np.where(mask, f, 0.0))
        assert_bits_equal(op.adjoint_sampled(y), ref_adjoint(mask, f))
        # real data goes through the same casts as in the formulas
        assert_bits_equal(op.adjoint(f.real), ref_adjoint(mask, f.real))
        assert_fidelity_matches(op, x, f.real, f.real)


@fresh_pool
def test_set_up_transforms_in_the_scratch_equal_the_fft2_formulas():
    # bit for bit; the non-square shapes pin the axis order, the last axis
    # first as fft2 takes it, and no result is a view of the scratch
    rng = np.random.default_rng(49)
    for shape in [(2, 2), (3, 5), (96, 160), (128, 128)]:
        mask, x, f = draw(rng, shape)
        op = MaskedDft(mask)
        y = op.sample(f)
        got = op.forward_sampled(x), op.adjoint_sampled(y)
        assert_bits_equal(got[0], op.sample(np.fft.fft2(x.reshape(shape), norm="ortho")))
        assert_bits_equal(got[1], np.fft.ifft2(op.unsample(y), norm="ortho").real.flatten())
        scratch = core._scratch.bufs[("dft", shape)]
        assert not any(np.shares_memory(g, buf) for g in got for buf in scratch)


@fresh_pool
def test_instances_built_in_turn_leave_nothing_in_the_scratch():
    # A, then B of the same shape, then A again in one thread: A's data and
    # zero-filled images come back bit for bit
    specs = [
        (InstanceSpec(height=48, width=32, ratio=0.3), 0),
        (InstanceSpec(height=48, width=32, mask_type="uniform", ratio=0.5, noise_std=0.1), 1),
    ]

    def build(spec, seed):
        data = generate_instance(spec, seed).kspace
        zero_filled = [data.dft.adjoint_sampled(y) for y in (data.y1, data.y2)]
        for y, z in zip((data.y1, data.y2), zero_filled):
            assert_bits_equal(z, np.fft.ifft2(data.dft.unsample(y), norm="ortho").real.flatten())
        return [data.y1, data.y2, *zero_filled]

    first = build(*specs[0])
    build(*specs[1])
    for got, want in zip(build(*specs[0]), first):
        assert_bits_equal(got, want)


@fresh_pool
def test_set_up_transforms_make_no_full_size_complex_array():
    # once a first call has made the scratch, each call allocates less
    # than one full-size complex array, 1 MiB at 256^2; the one-channel
    # fidelity and its gradient, on full data, too
    rng = np.random.default_rng(50)
    op = MaskedDft(rng.random((256, 256)) < 0.3)
    x = rng.normal(size=256 * 256)
    f = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    y = op.forward_sampled(x)
    op.adjoint_sampled(y)
    calls = [
        (op.forward_sampled, (x,)),
        (op.adjoint_sampled, (y,)),
        (op.fidelity, (x, f)),
        (op.grad_fidelity, (x, f)),
    ]
    for call, args in calls:
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 16


def test_nonfinite_data_off_the_mask_is_ignored_silently():
    rng = np.random.default_rng(40)
    mask, x, f = draw(rng, (6, 9))
    signalling = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    off = np.flatnonzero(~mask)
    bad = f.copy()
    for i, v in zip(off, [np.nan, np.inf, -np.inf, complex(0.0, np.nan), signalling] * len(off)):
        bad.flat[i] = v
    op = MaskedDft(mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_fidelity_matches(op, x, bad, f)
        assert_bits_equal(op.adjoint(bad), ref_adjoint(mask, f))


def test_operator_and_data_hold_copies_of_the_callers_arrays():
    # changing the mask and data after construction changes neither what
    # the transforms use nor what the holders report, and the held arrays
    # cannot be written
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, :2] = True
    y1, y2 = np.array([1 + 2j, 3 - 4j]), np.array([5.0, 6.0])
    op = MaskedDft(mask)
    data = KSpaceData(op, y1, y2)
    inst = Instance(np.zeros((4, 4)), np.zeros((4, 4)), data)
    mask[:] = True
    y1[:] = 0.0
    y2[:] = 0.0
    assert op.mask.sum() == op._on.size == 2 and inst.achieved_ratio == 2 / 16
    x = np.arange(16.0)
    assert_bits_equal(op.forward(x), ref_forward(op.mask, x))
    assert_bits_equal(data.y1, np.array([1 + 2j, 3 - 4j]))
    assert_bits_equal(data.y2, np.array([5 + 0j, 6 + 0j]))
    for held in (op.mask, data.y1, data.y2):
        assert not held.flags.writeable


def test_an_instance_holds_copies_of_the_callers_truths():
    # changing the truths after construction changes neither what the
    # instance holds, which metrics are measured against and generate
    # writes, nor can the held arrays be written
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    t1, t2 = inst.truth1.copy(), inst.truth2.copy()
    want1, want2 = t1.copy(), t2.copy()
    held = Instance(t1, t2, inst.kspace)
    t1[:] = 0.0
    t2[:] = np.nan
    assert_bits_equal(held.truth1, want1)
    assert_bits_equal(held.truth2, want2)
    for truth in (held.truth1, held.truth2, inst.truth1, inst.truth2):
        assert not truth.flags.writeable


def test_an_instance_holds_one_operator():
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    assert inst.dft is inst.kspace.dft
    assert not any(isinstance(v, MaskedDft) for v in vars(inst).values())
    with pytest.raises(AttributeError):
        inst.dft = inst.kspace.dft


def _transform_results():
    """Every MaskedDft transform, an instance's data and zero-filled start,
    and a 2-iteration 16^2 identity solve, all as arrays."""
    rng = np.random.default_rng(51)
    mask, x1, f1 = draw(rng, (6, 9))
    _, x2, f2 = draw(rng, (6, 9))
    op = MaskedDft(mask)
    y1, y2 = op.sample(f1), op.sample(f2)
    pair = op.residual_pair(x1, x2, y1, y2)
    out = [
        op.forward(x1),
        op.adjoint(f1),
        np.float64(op.fidelity(x1, f1)),
        op.grad_fidelity(x1, f1),
        op.forward_sampled(x1),
        op.adjoint_sampled(y1),
        *pair,
        *op.adjoint_pair(*pair),
    ]
    inst = generate_instance(InstanceSpec(height=16, width=16, noise_std=0.01), 3)
    obj = JointRecovery(inst.dft, inst.kspace, IdentityExtractor(16, 16), 0.0093)
    X0 = obj.zero_filled()
    state, _ = lpam_run(obj, X0, LpamConfig(max_iter=2))
    assert len(state.trace) == 2
    rows = np.array([[r.phi, r.grad_norm, r.decrease, r.eps] for r in state.trace])
    return out + [inst.kspace.y1, inst.kspace.y2, X0.x1, X0.x2, state.X.x1, state.X.x2, rows]


@fresh_pool
def test_no_transform_calls_a_full_array_fft():
    # every transform runs the per-axis passes: with the full-array FFTs
    # refusing, each result is the one made before, bit for bit
    want = _transform_results()

    def refuse(*args, **kwargs):
        raise AssertionError("a full-array FFT was called")

    with mock.patch.multiple(np.fft, fft2=refuse, ifft2=refuse, fftn=refuse, ifftn=refuse):
        got = _transform_results()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bits_equal(g, w)


# the pair kernels agree with the one-channel formulas to rounding, relative
# to each channel's own norm: measured about 3e-16, stated as PAIR_RTOL
PAIR_RTOL = 1e-13


def norm(v):
    """2-norm without overflow or underflow of the squares."""
    top = np.max(np.abs(v), initial=0.0)
    return top * np.linalg.norm(np.asarray(v) / top) if top else 0.0


def assert_adjoint_pair_matches(op, r1, r2):
    g1, g2 = op.adjoint_pair(r1, r2)
    for r, g in ((r1, g1), (r2, g2)):
        full = np.zeros(op.shape, np.complex128)
        full[op.mask] = r
        assert g.dtype == np.float64 and g.shape == (op.n,)
        assert norm(g - ref_adjoint(op.mask, full)) <= PAIR_RTOL * norm(r)
    return g1, g2


def assert_pair_matches(mask, x1, x2, f1, f2):
    """The pair kernels against ``ref_residual`` and ``ref_adjoint`` per channel."""
    op = MaskedDft(mask)
    r1, r2 = op.residual_pair(x1, x2, op.sample(f1), op.sample(f2))
    for x, f, r in ((x1, f1, r1), (x2, f2, r2)):
        assert r.dtype == np.complex128 and r.shape == (mask.sum(),)
        ref = ref_residual(mask, x, f)[mask]
        assert norm(r - ref) <= PAIR_RTOL * (norm(x) + norm(np.asarray(f)[mask]))
    return (r1, r2), assert_adjoint_pair_matches(op, r1, r2)


@fresh_pool
def test_dft_scratch_reuse_across_shapes():
    # the pair kernels, one of the pool's DFT users: interleaved shapes
    # share no buffer, and a repeated shape sees nothing left over from a
    # call on other data
    rng = np.random.default_rng(41)
    for _ in range(2):
        for shape in SHAPES + SHAPES[::-1]:
            mask, x1, f1 = draw(rng, shape)
            _, x2, f2 = draw(rng, shape)
            assert_pair_matches(mask, x1, x2, f1, f2)


@pytest.mark.parametrize("shape", SHAPES)
def test_pair_kernels_match_the_one_channel_formulas(shape):
    rng = np.random.default_rng(shape[0] * 37 + shape[1])
    for trial in range(4):
        mask, x1, f1 = draw(rng, shape)
        _, x2, f2 = draw(rng, shape)
        if trial == 1:
            mask[:] = True
        elif trial == 2:
            mask[:] = False
        elif trial == 3:
            f1, f2 = f1.real, f2.real
        assert_pair_matches(mask, x1, x2, f1, f2)


@pytest.mark.parametrize("ratio", [1e-12, 1e12, 1e-160, 1e160])
def test_pair_kernels_keep_each_channel_to_its_own_norm(ratio):
    # one channel scaled far from the other; unbalanced, the small channel's
    # error would be relative to the large one (1e-5 to 2e-4 at ratio 1e-12),
    # and at 1e+-160 the squared norms leave the float range
    rng = np.random.default_rng(45)
    for shape in [(8, 8), (6, 9), (16, 12)]:
        mask, x1, f1 = draw(rng, shape)
        _, x2, f2 = draw(rng, shape)
        assert_pair_matches(mask, x1, ratio * x2, f1, ratio * f2)
        assert_pair_matches(mask, ratio * x1, x2, ratio * f1, f2)


def test_pair_kernels_leave_a_zero_channel_exactly_zero():
    rng = np.random.default_rng(46)
    for shape in SHAPES:
        mask, x, f = draw(rng, shape)
        op = MaskedDft(mask)
        zero = np.zeros(mask.size)
        (_, r2), _ = assert_pair_matches(mask, x, zero, f, f)
        assert np.array_equal(r2, -f[mask])
        (r1, _), _ = assert_pair_matches(mask, zero, x, f, f)
        assert np.array_equal(r1, -f[mask])
        r = ref_residual(mask, x, f)[mask]
        none = np.zeros(mask.sum(), np.complex128)
        assert not np.any(assert_adjoint_pair_matches(op, r, none)[1])
        assert not np.any(assert_adjoint_pair_matches(op, none, r)[0])


def test_sampling_ignores_nonfinite_data_off_the_mask_silently():
    # the data are read off full arrays once, where data and mask meet:
    # what lies off the mask, even a signalling NaN, never reaches the
    # sampled values the pair kernels take, nor raises a warning
    rng = np.random.default_rng(47)
    mask, _, f1 = draw(rng, (6, 9))
    _, _, f2 = draw(rng, (6, 9))
    signalling = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    off = np.flatnonzero(~mask)
    bad1, bad2 = f1.copy(), f2.copy()
    for i, v in zip(off, [np.nan, np.inf, -np.inf, complex(0.0, np.nan), signalling] * len(off)):
        bad1.flat[i] = v
        bad2.flat[i] = np.conj(v)
    op = MaskedDft(mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad, f in ((bad1, f1), (bad2, f2), (bad1.real, f1.real)):
            assert_bits_equal(op.sample(bad), f[mask])
        data = KSpaceData(op, op.sample(bad1), op.sample(bad2))
        assert_bits_equal(data.f1, np.where(mask, f1, 0.0))
        assert_bits_equal(data.f2, np.where(mask, f2, 0.0))


@pytest.mark.parametrize("view", ["real", "imag", "transpose", "reversed rows"])
def test_sampling_a_strided_view_makes_no_full_size_copy(view):
    # a view that is not C-contiguous is gathered with no copy of it: the
    # values are its row-major ones at the mask, and the peak stays below
    # one copy of the view, which a reshape of the transpose or of the
    # reversed rows would make
    rng = np.random.default_rng(48)
    mask = rng.random((256, 256)) < 0.3
    f = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    v = {"real": f.real, "imag": f.imag, "transpose": f.T, "reversed rows": f[::-1]}[view]
    assert not v.flags.c_contiguous
    want = v[mask]
    op = MaskedDft(mask)
    tracemalloc.start()
    try:
        got = op.sample(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_bits_equal(got, want)
    assert peak < v.nbytes


def _dots(*vs):
    """Squared norms as a caller takes them, inf where the squares overflow."""
    with np.errstate(over="ignore"):
        return tuple(squared_norm(v) for v in vs)


@pytest.mark.parametrize("shape", [(8, 8), (6, 9)])
def test_pair_kernels_given_the_dots_return_the_same_bits(shape):
    # a caller that holds the squared norms passes them, and the kernels
    # take a dot of their own only to rescale one that overflowed or
    # underflowed: the results are those of the kernels' own dots, bit for
    # bit, for every pair of an ordinary channel, one whose squares
    # overflow, one whose squares underflow, one with a NaN and a zero one
    rng = np.random.default_rng(50 + shape[1])
    mask, x, f = draw(rng, shape)
    with_nan = x.copy()
    with_nan[1] = np.nan
    channels = [
        (x, f),
        (1e200 * x, 1e200 * f),
        (1e-170 * x, 1e-170 * f),
        (with_nan, f),
        (np.zeros_like(x), np.zeros_like(f)),
    ]
    dots = [_dots(c) for c, _ in channels]
    assert np.isinf(dots[1]) and dots[2] == (0.0,) and np.isnan(dots[3]) and dots[4] == (0.0,)
    op = MaskedDft(mask)
    for (x1, f1), (x2, f2) in itertools.product(channels, repeat=2):
        y1, y2 = op.sample(f1), op.sample(f2)
        pair = op.residual_pair(x1, x2, y1, y2)
        for got, ref in zip(op.residual_pair(x1, x2, y1, y2, dots=_dots(x1, x2)), pair):
            assert_bits_equal(got, ref)
        for got, ref in zip(op.adjoint_pair(*pair, dots=_dots(*pair)), op.adjoint_pair(*pair)):
            assert_bits_equal(got, ref)


def test_residual_energy_is_one_kernel_for_full_and_sampled_residuals():
    rng = np.random.default_rng(49)
    for shape in SHAPES:
        mask, x, f = draw(rng, shape)
        full = ref_residual(mask, x, f)
        half_sq = 0.5 * np.sum(np.abs(full) ** 2)
        for resid, ref in (
            (full, half_sq),
            (full.T, half_sq),  # not contiguous
            (full[mask], half_sq),
            (full.real, 0.5 * np.sum(full.real**2)),
        ):
            assert residual_energy(resid) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_pair_kernels_reject_mismatched_shapes():
    op = MaskedDft(np.eye(4, dtype=bool))
    x, r = np.zeros(16), np.zeros(4, np.complex128)
    with pytest.raises(ValueError):
        op.residual_pair(x, np.zeros(15), r, r)
    with pytest.raises(ValueError):
        op.residual_pair(x, x, r, np.zeros(5, np.complex128))
    with pytest.raises(ValueError):
        op.residual_pair(x, x, np.zeros((4, 4)), r)  # full data, not sampled
    with pytest.raises(ValueError):
        op.sample(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        op.adjoint_pair(r, np.zeros(5, np.complex128))
    with pytest.raises(ValueError):
        op.adjoint_pair(np.zeros((2, 2), np.complex128), r)


@fresh_pool
def test_pair_outputs_alias_neither_scratch_nor_inputs():
    rng = np.random.default_rng(48)
    outputs = []
    for shape in SHAPES:
        mask, x1, f1 = draw(rng, shape)
        _, x2, f2 = draw(rng, shape)
        inputs = [x1, x2, f1, f2]
        kept = [a.copy() for a in inputs]
        op = MaskedDft(mask)
        y1, y2 = op.sample(f1), op.sample(f2)
        inputs += [y1, y2]
        kept += [y1.copy(), y2.copy()]
        r = op.residual_pair(x1, x2, y1, y2)
        kept_r = [a.copy() for a in r]
        g = op.adjoint_pair(*r)
        for a, b in zip(inputs + list(r), kept + kept_r):
            assert_bits_equal(a, b)
        assert not any(np.shares_memory(out, a) for out in r + g for a in inputs)
        assert not any(np.shares_memory(a, b) for a in g for b in r)
        outputs += [*r, *g]
    pool = core._scratch.bufs
    assert {key[0] for key in pool} == {"dft"}
    scratch = [buf for bufs in pool.values() for buf in bufs]
    for out in outputs:
        assert not any(np.shares_memory(out, buf) for buf in scratch)


def ref_conv(x, w):
    """The row-padded column-matrix product of ``conv_forward`` on freshly made arrays."""
    out_ch, in_ch, kh, kw = w.shape
    _, h, wd = x.shape
    wp = wd + kw - 1
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2))).reshape(in_ch, -1)
    xp = np.pad(xp, ((0, 0), (0, kw - 1)))
    starts = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    cols = np.stack([xp[:, t : t + h * wp] for t in starts], 1)
    out = w.reshape(out_ch, -1) @ cols.reshape(-1, h * wp)
    return out.reshape(out_ch, h, wp)[:, :, :wd]


@fresh_pool
def test_conv_and_dft_share_the_pool_without_interfering():
    # convolutions and pair DFTs of the same image sizes, interleaved on
    # one thread, each keep to their own tagged buffers in the one pool
    rng = np.random.default_rng(44)
    for _ in range(2):
        for shape in SHAPES + SHAPES[::-1]:
            mask, x1, f1 = draw(rng, shape)
            _, x2, f2 = draw(rng, shape)
            img = rng.normal(size=(2, *shape)) + 10.0
            w = rng.normal(size=(3, 2, 3, 3))
            assert_pair_matches(mask, x1, x2, f1, f2)
            assert_bits_equal(conv_forward(img, w), ref_conv(img, w))
            assert_pair_matches(mask, x2, x1, f2, f1)
            assert_bits_equal(conv_forward(img[:1], w[:, :1]), ref_conv(img[:1], w[:, :1]))
    assert {key[0] for key in core._scratch.bufs} == {"conv", "dft"}


def test_transforms_are_thread_safe():
    # exactly two threads, each with its own operator and data, must
    # reproduce the sequential results bit for bit
    rng = np.random.default_rng(43)
    cases = [draw(rng, (16, 12)) for _ in range(2)]

    def run(mask, x, f):
        op = MaskedDft(mask)
        pair = op.residual_pair(x, x[::-1], op.sample(f), op.sample(f[::-1]))
        return (
            op.forward(x),
            op.adjoint(f),
            op.fidelity(x, f),
            op.grad_fidelity(x, f),
            *pair,
            *op.adjoint_pair(*pair),
        )

    expected = [run(*case) for case in cases]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        results[i] = [run(*cases[i]) for _ in range(50)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between most numpy calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        for got in results[i]:
            for a, b in zip(got, expected[i]):
                assert_bits_equal(a, b)


@pytest.mark.parametrize("maker", [uniform_mask, radial_mask])
def test_mask_hits_requested_ratio(maker):
    rng = np.random.default_rng(7)
    for ratio in (0.1, 0.3, 0.5, 1.0):
        m = maker(32, 32, ratio, rng)
        assert m.dtype == bool and m.shape == (32, 32)
        assert m.mean() == pytest.approx(round(ratio * 1024) / 1024)


@pytest.mark.parametrize("maker", [uniform_mask, radial_mask])
def test_mask_rejects_bad_ratio(maker):
    rng = np.random.default_rng(8)
    for ratio in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            maker(16, 16, ratio, rng)


def test_radial_mask_keeps_dc():
    rng = np.random.default_rng(9)
    m = radial_mask(32, 32, 0.2, rng)
    assert m[0, 0]  # zero frequency in FFT layout


# square and non-square sides, three seeds each, and a case that draws its
# larger spoke counts in more than one pass: 128^2 at ratio 1.0 (177
# spokes per pass, counts 103 to 257 drawn)
RADIAL_CASES = [
    (h, w, ratio, seed)
    for h, w in [(2, 2), (2, 64), (64, 2), (3, 7), (16, 16), (31, 17), (32, 48), (64, 64), (100, 37)]
    for ratio in (0.01, 0.3, 1.0)
    for seed in (0, 1, 2)
] + [
    (256, 256, ratio, seed) for ratio in (0.01, 0.3) for seed in (0, 1, 2)
] + [(128, 128, ratio, 0) for ratio in (0.01, 0.3, 1.0)]


@pytest.mark.parametrize("height, width, ratio, seed", RADIAL_CASES)
def test_radial_mask_equals_the_per_spoke_oracle(height, width, ratio, seed):
    # bit for bit, and with the same draws from the generator, so the
    # noise an instance draws after its mask is unchanged too
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = radial_mask(height, width, ratio, rng)
    assert np.array_equal(got, oracles.radial_mask(height, width, ratio, ref_rng))
    assert got.dtype == bool and got.shape == (height, width)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(
    st.integers(2, 70),
    st.integers(2, 70),
    st.integers(1, 200).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s - 1))),
)
def test_a_spoke_covers_at_most_height_plus_width_minus_one_pixels(height, width, spokes):
    # the premise of radial_mask's start count: S spokes cover at most
    # S * (height + width - 1) pixels
    num_spokes, j = spokes
    angle = (np.pi * np.arange(num_spokes) / num_spokes)[j]
    assert len(oracles.spoke_pixels(height, width, angle)) <= height + width - 1


def test_the_spoke_cap_covers_every_pixel():
    # the premise of radial_mask's search ending by the cap 4 max(h, w),
    # with no pixels left to add at random (its docstring has the proof)
    shapes = itertools.product(range(2, 41), repeat=2)
    oblong = [(2, 512), (512, 2), (3, 1000), (5, 301), (127, 129)]
    for height, width in itertools.chain(shapes, oblong):
        mask = np.zeros((height, width), dtype=bool)
        ts = operators._spoke_samples(height, width)
        operators._draw_spokes(mask, 4 * max(height, width), ts)
        assert mask.all(), (height, width)


def test_radial_mask_temporary_memory_is_bounded():
    # spokes are drawn in passes of a fixed number of samples; all spokes
    # of a count at once would peak near 48 MB here
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        radial_mask(1024, 1024, 0.3, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@given(
    st.integers(2, 70),
    st.integers(2, 70),
    st.integers(1, 200).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s - 1))),
)
def test_every_sample_beyond_reach_rounds_off_the_grid(height, width, spokes):
    # the premise of drawing only the samples _spoke_samples keeps, a
    # window of the full grid over +-hypot(height, width)
    num_spokes, j = spokes
    angle = (np.pi * np.arange(num_spokes) / num_spokes)[j]
    radius = float(np.hypot(height, width))
    ts = np.arange(-radius, radius, 0.5)
    kept = operators._spoke_samples(height, width)
    lo = int(np.searchsorted(ts, kept[0]))
    assert np.array_equal(ts[lo : lo + kept.size], kept)
    dropped = np.concatenate((ts[:lo], ts[lo + kept.size :]))
    ys = np.round(height // 2 + dropped * np.sin(angle))
    xs = np.round(width // 2 + dropped * np.cos(angle))
    assert not ((ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)).any()


@given(st.integers(2, 70), st.integers(2, 70), st.integers(1, 200))
def test_drawn_spokes_equal_the_oracle_spoke_pixels(height, width, num_spokes):
    mask = np.zeros((height, width), dtype=bool)
    want = np.zeros_like(mask)
    for angle in np.pi * np.arange(num_spokes) / num_spokes:
        want[tuple(zip(*oracles.spoke_pixels(height, width, angle)))] = True
    operators._draw_spokes(mask, num_spokes, operators._spoke_samples(height, width))
    assert np.array_equal(mask, want)


@given(st.integers(2, 70), st.integers(2, 70), st.integers(1, 280))
def test_the_coverage_bound_holds(height, width, num_spokes):
    # radial_mask skips every spoke count whose bound is below the target
    mask = np.zeros((height, width), dtype=bool)
    operators._draw_spokes(mask, num_spokes, operators._spoke_samples(height, width))
    bound = operators._coverage_bound(np.array([num_spokes]), height, width)
    assert bound.shape == (1,) and np.count_nonzero(mask) <= bound[0]


@given(
    st.integers(2, 70).flatmap(
        lambda h: st.tuples(st.just(h), st.one_of(st.just(h), st.integers(2, 70)))
    ),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_coverage_bounds_equal_the_per_count_reference(shape, ratio):
    # one pass over many counts' angles sums the same integer terms as one
    # call per count, so the bounds, and the first count radial_mask draws,
    # are the reference's exactly
    height, width = shape
    target = max(1, round(ratio * height * width))
    max_spokes = 4 * max(height, width)
    start = min(-(-target // (height + width - 1)), max_spokes)
    counts = np.arange(start, max_spokes + 1)
    bounds = operators._coverage_bound(counts, height, width)
    want = [oracles.coverage_bound(int(s), height, width) for s in counts]
    assert bounds.dtype == np.float64 and bounds.tolist() == want
    num_spokes = start
    while num_spokes < max_spokes and oracles.coverage_bound(num_spokes, height, width) < target:
        num_spokes += 1
    # passes of one count each, of a few, and of as many as radial_mask takes
    for samples in (1, 97, operators._SPOKE_SAMPLES):
        with mock.patch.object(operators, "_SPOKE_SAMPLES", samples):
            assert operators._start_count(height, width, target) == num_spokes


@pytest.mark.parametrize("height, width, ratio", [(4096, 4096, 0.3), (1000, 3000, 1.0)])
def test_the_start_count_found_over_several_passes_equals_the_per_count_loop(
    height, width, ratio
):
    # here the counts up to the first admitted one hold more angles than
    # one pass takes (4 and 17 passes), and no pass takes more than that
    # but for a single count
    target = round(ratio * height * width)
    num_spokes = -(-target // (height + width - 1))
    while oracles.coverage_bound(num_spokes, height, width) < target:
        num_spokes += 1
    bound, passes = operators._coverage_bound, []

    def recorded(counts, *shape):
        passes.append(counts)
        return bound(counts, *shape)

    with mock.patch.object(operators, "_coverage_bound", recorded):
        assert operators._start_count(height, width, target) == num_spokes
    assert len(passes) > 1
    assert all(c.sum() <= operators._SPOKE_SAMPLES or c.size == 1 for c in passes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_radial_mask_samples_the_border_at_most_at_its_ratio(seed):
    # spokes end at the grid's edge, so the highest frequencies, the
    # centred layout's border, are sampled no more densely than the grid
    mask = np.fft.fftshift(radial_mask(128, 128, 0.3, np.random.default_rng(seed)))
    border = np.concatenate((mask[0], mask[-1], mask[1:-1, 0], mask[1:-1, -1]))
    assert border.size == 508 and border.mean() <= 0.3


@pytest.mark.parametrize("shape", [(2, 2), (7, 7), (8, 8), (5, 12), (12, 5), (1, 9), (9, 1)])
def test_mirror_indices_equal_the_full_grid(shape):
    rng = np.random.default_rng(shape[0] * 13 + shape[1])
    masks = [rng.random(shape) < ratio for ratio in (0.0, 0.3, 1.0)]
    for mask in masks + [np.zeros(shape, bool), np.ones(shape, bool)]:
        got = MaskedDft(mask)._mirror
        want = oracles.mirror_indices(mask)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mirror_indices_take_no_full_size_grid():
    # at 2048^2 an intp grid of every mirror alone is 32 MiB; a mask
    # sampling 10 % needs about 3.2 MiB per index array, and three of them
    # are alive at once
    mask = np.random.default_rng(0).random((2048, 2048)) < 0.1
    tracemalloc.start()
    try:
        MaskedDft(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "shape",
    [
        (2, 2),
        (3, 7),
        (31, 17),
        (64, 64),
        (128, 128),
        # the shapes' bounding boxes clip at the top and bottom edges, then
        # at the left and right ones, on grids down to two pixels thin
        (2, 4096),
        (4096, 2),
        (5, 300),
        (300, 5),
        (1024, 1024),
    ],
)
def test_phantom_equals_the_full_grid_oracle(shape):
    for seed in range(1 if shape == (1024, 1024) else 10):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = shared_structure_phantom(*shape, rng)
        want = oracles.shared_structure_phantom(*shape, ref_rng)
        for g, w in zip(got, want):
            assert g.shape == shape and g.tobytes() == w.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_phantom_properties():
    rng = np.random.default_rng(10)
    t1, t2 = shared_structure_phantom(32, 32, rng)
    for t in (t1, t2):
        assert t.min() >= 0.0 and t.max() <= 1.0
        assert np.any(t == 0.0)  # background exactly zero
    # joint sparsity: most support is shared
    s1, s2 = t1 > 0, t2 > 0
    assert (s1 & s2).sum() >= 0.5 * max(s1.sum(), s2.sum())


def test_generate_instance_deterministic():
    spec = InstanceSpec(height=16, width=16, ratio=0.3)
    a = generate_instance(spec, 42)
    b = generate_instance(spec, 42)
    assert np.array_equal(a.truth1, b.truth1)
    assert np.array_equal(a.dft.mask, b.dft.mask)
    assert np.array_equal(a.kspace.f1, b.kspace.f1)
    c = generate_instance(spec, 43)
    assert not np.array_equal(a.kspace.f1, c.kspace.f1)


# SHA-256 of the full k-space data of two 128^2 instances at ratio 0.3, the
# uniform one as generated before the data were held at the sampled
# frequencies only, the radial one since its spokes end at the grid's edge; the
# low bits of an FFT may differ with another numpy, so the digests are
# compared on the numpy they were taken with, and the formula everywhere
KSPACE_PINS_NUMPY = "2.4.6"
KSPACE_PINS = [
    (
        InstanceSpec(height=128, width=128, ratio=0.3),
        0,
        "3f6f5a82ce5ed658ebf6d47d2a24955176904e17a5ba105091e0a630a0df0d10",
        "bb2b14924c550d285415df7623600d03bad679d9c8da406aaa8d235cf53acb40",
    ),
    (
        InstanceSpec(height=128, width=128, mask_type="uniform", ratio=0.3, noise_std=0.01),
        1,
        "60d12f14851eb4a554783ac5e63bfcd616dc929d8e6dc76c67f5474fa744187b",
        "af78725a407ff903840be6518a7223ba1ba85426147beaaa97ac1efd626a9fdf",
    ),
]


@pytest.mark.parametrize("spec, seed, sha1, sha2", KSPACE_PINS, ids=["radial", "uniform-noisy"])
def test_instance_holds_only_the_sampled_values(spec, seed, sha1, sha2):
    inst = generate_instance(spec, seed)
    mask, data = inst.dft.mask, inst.kspace
    count = int(mask.sum())
    assert data.dft is inst.dft  # the operator's index array, not a copy
    # every array the instance holds, none a view that keeps a larger
    # array alive
    held = [
        v
        for holder in (inst, inst.dft, data)
        for v in vars(holder).values()
        if isinstance(v, np.ndarray)
    ]
    for a in held:
        root = a
        while root.base is not None:
            root = root.base
        assert root.nbytes == a.nbytes
    # the only complex ones are the sampled values, mask.sum() per channel
    assert [id(a) for a in held if np.iscomplexobj(a)] == [id(data.y1), id(data.y2)]
    assert data.y1.shape == data.y2.shape == (count,)
    # the full arrays, built on access, are the formula's bit for bit
    rng = np.random.default_rng(seed)
    truths = shared_structure_phantom(spec.height, spec.width, rng)
    make_mask = radial_mask if spec.mask_type == "radial" else uniform_mask
    assert np.array_equal(make_mask(spec.height, spec.width, spec.ratio, rng), mask)
    for truth, full in zip(truths, (data.f1, data.f2)):
        assert not full.flags.writeable
        ref = ref_forward(mask, truth.ravel())
        if spec.noise_std > 0:
            noise = spec.noise_std * (
                rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
            )
            ref = np.where(mask, ref + noise, 0.0)
        assert_bits_equal(full, ref)
    if np.__version__ == KSPACE_PINS_NUMPY:
        assert hashlib.sha256(data.f1.tobytes()).hexdigest() == sha1
        assert hashlib.sha256(data.f2.tobytes()).hexdigest() == sha2


@pytest.mark.parametrize("shape", [(8, 8), (6, 9), (31, 17), (64, 64)])
@pytest.mark.parametrize("ratio", [0.1, 0.3, 1.0])
@pytest.mark.parametrize("mask_type, noise_std", [("radial", 0.0), ("uniform", 0.05)])
def test_generated_data_are_the_masked_transform_sampled(shape, ratio, mask_type, noise_std):
    # the data are gathered from the transform itself: the bytes of
    # sampling forward's masked copy of it, with the noise drawn full-shape
    spec = InstanceSpec(
        height=shape[0], width=shape[1], ratio=ratio, mask_type=mask_type, noise_std=noise_std
    )
    inst = generate_instance(spec, 7)
    dft, rng = inst.dft, np.random.default_rng(7)
    truths = shared_structure_phantom(*shape, rng)
    make_mask = radial_mask if mask_type == "radial" else uniform_mask
    make_mask(*shape, ratio, rng)
    for truth, got in zip(truths, (inst.kspace.y1, inst.kspace.y2)):
        want = dft.sample(dft.forward(truth.ravel()))
        if noise_std > 0:
            re = dft.sample(rng.standard_normal(shape))
            im = dft.sample(rng.standard_normal(shape))
            want += noise_std * (re + 1j * im)
        assert_bits_equal(got, want)


def test_generate_full_sampling_exact_data():
    spec = InstanceSpec(height=16, width=16, ratio=1.0, noise_std=0.0)
    inst = generate_instance(spec, 0)
    assert inst.achieved_ratio == 1.0
    assert inst.dft.fidelity(inst.truth1.ravel(), inst.kspace.f1) == pytest.approx(
        0.0, abs=1e-18
    )


def test_generate_ratio_within_band():
    inst = generate_instance(InstanceSpec(height=32, width=32, ratio=0.3), 1)
    assert 0.29 <= inst.achieved_ratio <= 0.31


def test_noise_only_on_mask():
    spec = InstanceSpec(height=16, width=16, ratio=0.3, noise_std=0.05)
    inst = generate_instance(spec, 3)
    assert np.all(inst.kspace.f1[~inst.dft.mask] == 0.0)
    clean = inst.dft.forward(inst.truth1.ravel())
    assert not np.array_equal(inst.kspace.f1, clean)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(height=1, width=16)
    with pytest.raises(ValueError):
        InstanceSpec(height=8, width=8, mask_type="spiral")
    # a NaN noise level would generate noise-free data, an infinite one
    # non-finite data
    for noise_std in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
            InstanceSpec(height=8, width=8, noise_std=noise_std)
    # the ratio and the noise level are real numbers and not bools, as a
    # config file gives them; an int past the float range is refused too
    for field, value in (("ratio", "a"), ("ratio", True), ("noise_std", True), ("ratio", None)):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            InstanceSpec(height=8, width=8, **{field: value})
    with pytest.raises(ValueError, match="sampling ratio"):
        InstanceSpec(height=8, width=8, ratio=10**400)
    with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
        InstanceSpec(height=8, width=8, noise_std=10**400)
    # a side is an int, as LpamConfig.max_iter is: a float or a bool would
    # fail only later, inside generate_instance
    for h, w in ((16.0, 16), (16, 16.0), (True, 16), (16, np.int64(16)), (16, "16")):
        with pytest.raises(ValueError, match="must be an integer"):
            InstanceSpec(height=h, width=w)
    # the side cap: a spec past it cannot be made, so no array is allocated
    InstanceSpec(height=MAX_SIDE, width=MAX_SIDE)
    for h, w in ((MAX_SIDE + 1, 8), (8, MAX_SIDE + 1), (2**40, 2**40)):
        with pytest.raises(ValueError, match=f"at most {MAX_SIDE}"):
            InstanceSpec(height=h, width=w)
