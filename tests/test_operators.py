import numpy as np
import pytest

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
        MaskedDft(np.ones(4, dtype=bool))


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
