import sys
import threading
import warnings

import numpy as np
import pytest

from lpam import operators
from lpam.operators import (
    InstanceSpec,
    MaskedDft,
    generate_instance,
    radial_mask,
    shared_structure_phantom,
    uniform_mask,
)


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


# the formulas the in-place per-axis transforms must reproduce bit for bit
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


def test_dft_scratch_reuse_across_shapes():
    # interleaved shapes share no buffer, and a repeated shape sees nothing
    # left over from a call on other data
    rng = np.random.default_rng(41)
    for _ in range(2):
        for shape in SHAPES + SHAPES[::-1]:
            mask, x, f = draw(rng, shape)
            op = MaskedDft(mask)
            assert_bits_equal(op.residual(x, f), ref_residual(mask, x, f))
            assert_bits_equal(op.grad_fidelity(x, f), ref_adjoint(mask, ref_residual(mask, x, f)))
            assert_bits_equal(op.forward(x), ref_forward(mask, x))


def test_outputs_do_not_alias_dft_scratch():
    rng = np.random.default_rng(42)
    outputs = []
    for shape in SHAPES:
        mask, x, f = draw(rng, shape)
        op = MaskedDft(mask)
        outputs += [op.forward(x), op.adjoint(f), op.residual(x, f), op.grad_fidelity(x, f)]
    scratch = [buf for pair in operators._scratch.bufs.values() for buf in pair]
    assert scratch
    for out in outputs:
        assert not any(np.shares_memory(out, buf) for buf in scratch)


def test_transforms_are_thread_safe():
    # exactly two threads, each with its own operator and data, must
    # reproduce the sequential results bit for bit
    rng = np.random.default_rng(43)
    cases = [draw(rng, (16, 12)) for _ in range(2)]

    def run(mask, x, f):
        op = MaskedDft(mask)
        return op.forward(x), op.adjoint(f), op.residual(x, f), op.grad_fidelity(x, f)

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
        InstanceSpec(height=1, width=16).validate()
    with pytest.raises(ValueError):
        InstanceSpec(height=8, width=8, mask_type="spiral").validate()
    with pytest.raises(ValueError):
        InstanceSpec(height=8, width=8, noise_std=-1.0).validate()
