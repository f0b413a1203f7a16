import threading
import warnings

import numpy as np
import pytest

from lpam import extractor
from lpam.core import TwoBlockPoint
from lpam.extractor import (
    FeatureExtractor,
    IdentityExtractor,
    _conv_backward,
    _conv_forward,
    random_extractor,
    smoothed_relu,
    smoothed_relu_deriv,
)


def naive_conv(x, w):
    """Nested-loop stride-1 zero-padded correlation oracle."""
    out_ch, in_ch, kh, kw = w.shape
    _, h, wd = x.shape
    py, px = kh // 2, kw // 2
    out = np.zeros((out_ch, h, wd))
    for o in range(out_ch):
        for i in range(in_ch):
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for dy in range(kh):
                        for dx in range(kw):
                            sy, sx = y + dy - py, xx + dx - px
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += x[i, sy, sx] * w[o, i, dy, dx]
                    out[o, y, xx] += acc
    return out


def test_smoothed_relu_hand_values():
    assert smoothed_relu(0.0, 0.01) == pytest.approx(0.0025)
    assert smoothed_relu(-0.02, 0.01) == 0.0
    assert smoothed_relu(0.01, 0.01) == pytest.approx(0.01)
    assert smoothed_relu(3.0, 0.01) == 3.0


def test_smoothed_relu_c1_at_breakpoints():
    d = 0.01
    # value and derivative continuous at +-d, exact algebra
    mid = lambda x: x * x / (4 * d) + 0.5 * x + d / 4
    assert mid(-d) == pytest.approx(0.0, abs=1e-18)
    assert mid(d) == pytest.approx(d, abs=1e-18)
    dmid = lambda x: x / (2 * d) + 0.5
    assert dmid(-d) == 0.0
    assert dmid(d) == 1.0
    assert smoothed_relu_deriv(-d, d) == 0.0
    assert smoothed_relu_deriv(d, d) == 1.0


def _deriv_three_branch(x, d):
    # the three-branch form the clip form replaces
    x = np.asarray(x, dtype=np.float64)
    mid = x / (2.0 * d) + 0.5
    return np.where(x <= -d, 0.0, np.where(x >= d, 1.0, mid))


@pytest.mark.parametrize("d", [0.01, 1.0, 3e-7, 1e-300, 1e300])
def test_smoothed_relu_deriv_clip_form_is_bit_identical(d):
    rng = np.random.default_rng(17)
    edges = [d, -d, 0.0, -0.0, np.inf, -np.inf, np.nan]
    for p in (d, -d):
        edges += [np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    x = np.concatenate([edges, rng.normal(size=5000) * d * 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smoothed_relu_deriv(x, d)
        ref = _deriv_three_branch(x, d)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_smoothed_relu_rejects_bad_delta():
    with pytest.raises(ValueError):
        smoothed_relu(1.0, 0.0)
    with pytest.raises(ValueError):
        smoothed_relu_deriv(1.0, -0.1)


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 8, 8))
    w = rng.normal(size=(5, 3, 3, 3))
    assert np.allclose(_conv_forward(x, w), naive_conv(x, w), atol=1e-12)
    w1 = rng.normal(size=(2, 3, 1, 1))
    assert np.allclose(_conv_forward(x, w1), naive_conv(x, w1), atol=1e-12)
    w5 = rng.normal(size=(2, 3, 5, 3))
    assert np.allclose(_conv_forward(x, w5), naive_conv(x, w5), atol=1e-12)


def test_conv_scratch_reuse_across_shapes():
    # interleaved shapes share nothing, and a repeated shape with new input
    # sees neither a dirty padded border nor a stale column from an earlier call
    rng = np.random.default_rng(21)
    shapes = [
        (in_ch, k, size)
        for size in (5, 7)
        for in_ch in (2, 8)
        for k in (1, 3, 5)
    ]
    for rnd in range(2):
        for in_ch, k, size in shapes + shapes[::-1]:
            x = rng.normal(size=(in_ch, size, size)) * (rnd + 1.0) + 10.0
            w = rng.normal(size=(3, in_ch, k, k))
            assert np.allclose(_conv_forward(x, w), naive_conv(x, w), atol=1e-10)


def test_outputs_do_not_alias_conv_scratch():
    rng = np.random.default_rng(22)
    ext = random_extractor(6, 6, num_layers=3, channels=4, seed=3)
    X = TwoBlockPoint(rng.normal(size=36), rng.normal(size=36))
    feats, pullback = ext.linearize(X)
    g = pullback(rng.normal(size=(4, 36)))
    x = rng.normal(size=(2, 6, 6))
    conv = _conv_forward(x, ext.weights[0])
    cells = dict(zip(pullback.__code__.co_freevars, pullback.__closure__))
    pre_acts = cells["pre_acts"].cell_contents
    assert len(pre_acts) == 2
    outputs = [feats, g.x1, g.x2, conv, *pre_acts]
    scratch = [buf for pair in extractor._scratch.bufs.values() for buf in pair]
    assert scratch
    for out in outputs:
        assert not any(np.shares_memory(out, buf) for buf in scratch)


def test_linearize_is_thread_safe():
    # exactly two threads, each with its own input, must reproduce the
    # sequential results bit for bit
    ext = random_extractor(8, 8, num_layers=4, channels=8, seed=1)
    rng = np.random.default_rng(23)
    inputs = [
        (TwoBlockPoint(rng.normal(size=64), rng.normal(size=64)), rng.normal(size=(8, 64)))
        for _ in range(2)
    ]

    def run(X, w):
        feats, pullback = ext.linearize(X)
        g = pullback(w)
        return feats, g.x1, g.x2

    expected = [run(X, w) for X, w in inputs]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        results[i] = [run(*inputs[i]) for _ in range(20)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        for got in results[i]:
            assert all(np.array_equal(a, b) for a, b in zip(got, expected[i]))


@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 5), (5, 3)])
def test_conv_backward_is_dense_transpose(kernel):
    # 4x5 images, 3 -> 2 channels; a 5-tall kernel overhangs the image
    rng = np.random.default_rng(11)
    in_ch, out_ch, h, wd = 3, 2, 4, 5
    w = rng.normal(size=(out_ch, in_ch, *kernel))
    dense = np.stack(
        [naive_conv(e.reshape(in_ch, h, wd), w).ravel() for e in np.eye(in_ch * h * wd)],
        axis=1,
    )
    adjoint = np.stack(
        [_conv_backward(e.reshape(out_ch, h, wd), w).ravel() for e in np.eye(out_ch * h * wd)],
        axis=1,
    )
    assert np.max(np.abs(adjoint - dense.T)) <= 1e-12


def test_linearize_matches_forward_and_vjp():
    rng = np.random.default_rng(12)
    for ext in (random_extractor(5, 7, num_layers=3, channels=4, seed=9), IdentityExtractor(5, 7)):
        X = TwoBlockPoint(rng.normal(size=35), rng.normal(size=35))
        feats, pullback = ext.linearize(X)
        assert np.array_equal(feats, ext.forward(X))
        # the pullback is reusable: each call sees the same linearization
        for _ in range(2):
            w = rng.normal(size=(ext.group_dim, 35))
            g, ref = pullback(w), ext.vjp(X, w)
            assert np.array_equal(g.x1, ref.x1) and np.array_equal(g.x2, ref.x2)


def test_identity_configuration():
    # one 1x1 kernel = 1 per channel: features equal the input pair
    w = np.eye(2).reshape(2, 2, 1, 1)
    ext = FeatureExtractor(4, 4, [w], act_delta=0.01)
    rng = np.random.default_rng(1)
    X = TwoBlockPoint(rng.normal(size=16), rng.normal(size=16))
    feats = ext.forward(X)
    assert np.allclose(feats, np.stack([X.x1, X.x2]))
    wts = rng.normal(size=(2, 16))
    g = ext.vjp(X, wts)
    assert np.allclose(g.x1, wts[0])
    assert np.allclose(g.x2, wts[1])


def test_zero_input_constant_propagation():
    # two 1x1 layers on zero input: w2 * sigma(0) = w2 * delta/4
    d = 0.01
    w1 = np.full((1, 2, 1, 1), 1.0)
    w2 = np.full((1, 1, 1, 1), 3.0)
    ext = FeatureExtractor(3, 3, [w1, w2], act_delta=d)
    feats = ext.forward(TwoBlockPoint.zeros(9, 9))
    assert np.allclose(feats, 3.0 * d / 4.0)


def test_vjp_zero_weights():
    ext = random_extractor(5, 5, num_layers=2, channels=3, seed=2)
    X = TwoBlockPoint(np.ones(25), np.ones(25))
    g = ext.vjp(X, np.zeros((3, 25)))
    assert np.all(g.x1 == 0.0) and np.all(g.x2 == 0.0)


def test_vjp_dot_product_adjoint():
    rng = np.random.default_rng(3)
    ext = random_extractor(6, 6, num_layers=3, channels=4, seed=4)
    X = TwoBlockPoint(rng.normal(size=36), rng.normal(size=36))
    for _ in range(5):
        d1 = rng.normal(size=36)
        d2 = rng.normal(size=36)
        w = rng.normal(size=(4, 36))
        h = 1e-6
        Xp = TwoBlockPoint(X.x1 + h * d1, X.x2 + h * d2)
        Xm = TwoBlockPoint(X.x1 - h * d1, X.x2 - h * d2)
        jd = (ext.forward(Xp) - ext.forward(Xm)) / (2 * h)
        lhs = float(np.sum(jd * w))
        g = ext.vjp(X, w)
        rhs = float(np.dot(d1, g.x1) + np.dot(d2, g.x2))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FeatureExtractor(4, 4, [], act_delta=0.01)
    with pytest.raises(ValueError):
        FeatureExtractor(4, 4, [np.zeros((2, 3, 3, 3))], act_delta=0.01)
    with pytest.raises(ValueError):
        FeatureExtractor(4, 4, [np.zeros((2, 2, 2, 3))], act_delta=0.01)
    with pytest.raises(ValueError):
        FeatureExtractor(4, 4, [np.zeros((2, 2, 3, 3))], act_delta=0.0)


def test_forward_shape_and_errors():
    ext = random_extractor(4, 6, num_layers=2, channels=3, seed=5)
    assert ext.num_groups == 24 and ext.group_dim == 3
    X = TwoBlockPoint(np.zeros(24), np.zeros(24))
    assert ext.forward(X).shape == (3, 24)
    with pytest.raises(ValueError):
        ext.forward(TwoBlockPoint(np.zeros(25), np.zeros(25)))
    with pytest.raises(ValueError):
        ext.vjp(X, np.zeros((2, 24)))
    with pytest.raises(ValueError):
        ext.vjp(X, np.zeros((24, 3)))


def test_jacobian_bound_dominates_measured_norm():
    rng = np.random.default_rng(6)
    ext = random_extractor(5, 5, num_layers=2, channels=4, seed=7)
    bound = ext.jacobian_norm_bound()
    X = TwoBlockPoint(rng.normal(size=25), rng.normal(size=25))
    h = 1e-6
    for _ in range(10):
        d1, d2 = rng.normal(size=25), rng.normal(size=25)
        scale = np.sqrt(np.dot(d1, d1) + np.dot(d2, d2))
        Xp = TwoBlockPoint(X.x1 + h * d1, X.x2 + h * d2)
        Xm = TwoBlockPoint(X.x1 - h * d1, X.x2 - h * d2)
        jd = (ext.forward(Xp) - ext.forward(Xm)) / (2 * h)
        assert np.linalg.norm(jd) <= bound * scale * (1 + 1e-6)
    assert ext.curvature_bound() > 0.0


def test_identity_extractor():
    ext = IdentityExtractor(4, 4)
    assert ext.num_groups == 16 and ext.group_dim == 2
    assert ext.jacobian_norm_bound() == 1.0
    assert ext.curvature_bound() == 0.0
    rng = np.random.default_rng(8)
    X = TwoBlockPoint(rng.normal(size=16), rng.normal(size=16))
    feats = ext.forward(X)
    assert np.allclose(feats[0], X.x1)
    assert np.allclose(feats[1], X.x2)
    w = rng.normal(size=(2, 16))
    g = ext.vjp(X, w)
    assert np.allclose(g.x1, w[0]) and np.allclose(g.x2, w[1])
    with pytest.raises(ValueError):
        ext.forward(TwoBlockPoint(np.zeros(15), np.zeros(16)))
    with pytest.raises(ValueError):
        ext.vjp(X, np.zeros((3, 16)))
    with pytest.raises(ValueError):
        ext.vjp(X, np.zeros((16, 2)))
