import hashlib
import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpam import core, operators
from lpam.operators import (
    MAX_SIDE,
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
    with pytest.raises(ValueError):
        op.residual(np.zeros(16), np.zeros((3, 3)))
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
        assert_bits_equal(op.residual(x, f), ref_residual(mask, x, f))
        # the sampled values, their zero-filled array and its adjoint
        y = op.sample(f)
        assert_bits_equal(y, f[mask])
        assert_bits_equal(op.unsample(y), np.where(mask, f, 0.0))
        assert_bits_equal(op.adjoint_sampled(y), ref_adjoint(mask, f))
        # real data goes through the same casts as in the formulas
        assert_bits_equal(op.adjoint(f.real), ref_adjoint(mask, f.real))
        assert_bits_equal(op.residual(x, f.real), ref_residual(mask, x, f.real))


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
        assert_bits_equal(op.residual(x, bad), ref_residual(mask, x, f))
        assert_bits_equal(op.adjoint(bad), ref_adjoint(mask, f))
        assert op.fidelity(x, bad) == op.fidelity(x, f)


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
    # the pair kernels are the pool's only DFT users: interleaved shapes
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
            op.residual(x, f),
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


# square and non-square sides, three seeds each, and two cases that draw
# each spoke count in more than one pass: 256^2 at ratio 0.3 (45 spokes
# per pass, counts 53 to 65 drawn) and 128^2 at ratio 1.0 (90 per pass,
# counts 101 to 228 drawn)
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
def test_an_off_grid_run_keeps_one_coordinate_at_its_clip_bound(height, width, spokes):
    # the premise of drawing each off-grid run as a segment
    num_spokes, j = spokes
    angle = (np.pi * np.arange(num_spokes) / num_spokes)[j]
    ts, lo, hi = operators._spoke_samples(height, width)
    assert 0 <= lo <= hi <= ts.size
    for run in (ts[:lo], ts[hi:]):
        if run.size:
            ys = np.clip(np.round(height // 2 + run * np.sin(angle)), 0, height - 1)
            xs = np.clip(np.round(width // 2 + run * np.cos(angle)), 0, width - 1)
            y_held = ys.min() == ys.max() in (0, height - 1)
            assert y_held or xs.min() == xs.max() in (0, width - 1)


@given(st.integers(2, 70), st.integers(2, 70), st.integers(1, 200))
def test_spokes_drawn_with_runs_as_segments_equal_the_oracle_spokes(height, width, num_spokes):
    ts, lo, hi = operators._spoke_samples(height, width)
    mask = np.zeros((height, width), dtype=bool)
    want = np.zeros_like(mask)
    for angle in np.pi * np.arange(num_spokes) / num_spokes:
        want[tuple(zip(*oracles.spoke_pixels(height, width, angle)))] = True
    for run_samples in (0, 2**62):  # every run as a segment, then none
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_RUN_SAMPLES", run_samples)
            operators._draw_spokes(mask, num_spokes, ts, lo, hi)
        assert np.array_equal(mask, want)


@given(st.integers(2, 70), st.integers(2, 70), st.integers(1, 280))
def test_the_coverage_bound_holds(height, width, num_spokes):
    # radial_mask skips every spoke count whose bound is below the target
    ts, lo, hi = operators._spoke_samples(height, width)
    mask = np.zeros((height, width), dtype=bool)
    operators._draw_spokes(mask, num_spokes, ts, lo, hi)
    assert np.count_nonzero(mask) <= operators._coverage_bound(num_spokes, height, width)


@pytest.mark.parametrize("run_samples", [0, 2**62])
@pytest.mark.parametrize(
    "height, width, ratio",
    [
        (2, 2, 1.0),
        (2, 64, 0.3),
        (64, 2, 0.3),
        (3, 7, 0.3),
        (31, 17, 0.3),
        (100, 37, 0.01),
        (128, 128, 0.3),
    ],
)
def test_radial_mask_equals_the_oracle_whichever_runs_are_segments(
    monkeypatch, height, width, ratio, run_samples
):
    # RADIAL_CASES draw runs as segments only at the larger sides
    monkeypatch.setattr(operators, "_RUN_SAMPLES", run_samples)
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    got = radial_mask(height, width, ratio, rng)
    assert np.array_equal(got, oracles.radial_mask(height, width, ratio, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(2, 2), (7, 7), (8, 8), (5, 12), (12, 5), (1, 9)])
def test_mirror_indices_equal_the_full_grid(shape):
    rng = np.random.default_rng(shape[0] * 13 + shape[1])
    for ratio in (0.0, 0.3, 1.0):
        mask = rng.random(shape) < ratio
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


@pytest.mark.parametrize("shape", [(2, 2), (3, 7), (31, 17), (64, 64), (128, 128)])
def test_phantom_equals_the_full_grid_oracle(shape):
    for seed in (0, 1, 2):
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


# SHA-256 of the full k-space data of two 128^2 instances at ratio 0.3, as
# generated before the data were held at the sampled frequencies only; the
# low bits of an FFT may differ with another numpy, so the digests are
# compared on the numpy they were taken with, and the formula everywhere
KSPACE_PINS_NUMPY = "2.4.6"
KSPACE_PINS = [
    (
        InstanceSpec(height=128, width=128, ratio=0.3),
        0,
        "4e1e18e3544259f8ee7ec51574115eced2f2af925eac98bfde27225b82ca303b",
        "6fc136c62d6a79417d5f0cf92127c371e400949b9068eae7fc2a8436b258e2a3",
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
