import threading
import warnings

import numpy as np
import pytest

from lpam import core
from lpam.core import TwoBlockPoint
from lpam.extractor import (
    FeatureExtractor,
    IdentityExtractor,
    _conv,
    _layer_bounds,
    group_norms,
    random_extractor,
    smoothed_relu,
    smoothed_relu_deriv,
)

from tests.oracles import conv_backward, conv_forward, fresh_pool, layer_bounds


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


def _relu_three_branch(x, d):
    # the three-branch form the derivative-based evaluation replaces
    mid = x * x / (4.0 * d) + 0.5 * x + d / 4.0
    return np.where(x <= -d, 0.0, np.where(x >= d, x, mid))


@pytest.mark.parametrize("d", [1e-3, 1e-2, 0.5, 3.0])
def test_smoothed_relu_is_exact_outside_the_band(d):
    # max(x, d*s^2) is x or +0 outside the band exactly, and inside it a
    # few ulps of d from the quadratic
    rng = np.random.default_rng(18)
    edges = [d, -d, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]
    for p in (d, -d):
        edges += [np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    x = np.concatenate([edges, rng.uniform(-3.0 * d, 3.0 * d, size=100_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smoothed_relu(x, d)
    outside = np.abs(x) >= d
    ref = np.where(x >= d, x, 0.0)
    assert np.array_equal(got[outside], ref[outside])
    assert not np.any(np.signbit(got))
    band = x[~outside]
    assert band.size > 10_000
    assert np.max(np.abs(got[~outside] - _relu_three_branch(band, d))) <= 1e-15 * d


def test_linearize_activations_match_smoothed_relu():
    # one activation formula: a two-layer extractor whose last layer is the
    # identity returns the smoothed ReLU of the first layer's output
    rng = np.random.default_rng(19)
    w1 = rng.normal(size=(2, 2, 3, 3))
    ext = FeatureExtractor(5, 4, [w1, np.eye(2).reshape(2, 2, 1, 1)], act_delta=0.05)
    X = TwoBlockPoint(rng.normal(size=20), rng.normal(size=20))
    z = conv_forward(ext._stack(X), w1)
    assert np.array_equal(ext.forward(X), smoothed_relu(z, 0.05).reshape(2, -1))


def test_kernels_are_read_only():
    ext = random_extractor(6, 5, num_layers=3, channels=4, seed=6)
    assert isinstance(ext.weights, tuple)
    for w in ext.weights:
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0


def test_kernels_are_copied_at_construction():
    # changing the caller's arrays afterwards changes neither the features
    # nor the pullback
    rng = np.random.default_rng(24)
    weights = [w.copy() for w in random_extractor(6, 5, num_layers=3, channels=4, seed=6).weights]
    ext = FeatureExtractor(6, 5, weights, 0.01)
    X = TwoBlockPoint(rng.normal(size=30), rng.normal(size=30))
    wts = rng.normal(size=(4, 30))
    feats, g = ext.forward(X), ext.vjp(X, wts)
    for w in weights:
        w *= rng.uniform(0.5, 2.0)
    assert np.array_equal(ext.forward(X), feats)
    ref = ext.vjp(X, wts)
    assert np.array_equal(g.x1, ref.x1) and np.array_equal(g.x2, ref.x2)


def test_smoothed_relu_rejects_bad_delta():
    with pytest.raises(ValueError):
        smoothed_relu(1.0, 0.0)
    with pytest.raises(ValueError):
        smoothed_relu_deriv(1.0, -0.1)


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 8, 8))
    w = rng.normal(size=(5, 3, 3, 3))
    assert np.allclose(conv_forward(x, w), naive_conv(x, w), atol=1e-12)
    w1 = rng.normal(size=(2, 3, 1, 1))
    assert np.allclose(conv_forward(x, w1), naive_conv(x, w1), atol=1e-12)
    w5 = rng.normal(size=(2, 3, 5, 3))
    assert np.allclose(conv_forward(x, w5), naive_conv(x, w5), atol=1e-12)


@fresh_pool
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
            assert np.allclose(conv_forward(x, w), naive_conv(x, w), atol=1e-10)


@fresh_pool
def test_outputs_do_not_alias_conv_scratch():
    # features, pullback results, the kept activation derivatives and the
    # fresh convolution results share no memory with any scratch buffer, the
    # GEMM output included; with 1x1 kernels the GEMM output's valid
    # columns are contiguous, so a missing copy would hand out a plain view
    rng = np.random.default_rng(22)
    outputs = []
    for kernel in (3, 1):
        ext = random_extractor(6, 6, num_layers=3, channels=4, kernel=kernel, seed=3)
        X = TwoBlockPoint(rng.normal(size=36), rng.normal(size=36))
        feats, pullback = ext.linearize(X)
        g = pullback(rng.normal(size=(4, 36)))
        cells = dict(zip(pullback.__code__.co_freevars, pullback.__closure__))
        derivs = cells["derivs"].cell_contents
        assert len(derivs) == 2
        x = rng.normal(size=(2, 6, 6))
        conv = conv_forward(x, ext.weights[0])
        adjoint = conv_backward(rng.normal(size=(4, 6, 6)), ext.weights[0])
        outputs += [feats, g.x1, g.x2, conv, adjoint, *derivs]
    pool = core._scratch.bufs
    scratch = [buf for key, bufs in pool.items() if key[0] == "conv" for buf in bufs]
    # the check sees the GEMM output: the unfreshened result lies in it
    assert any(np.shares_memory(_conv(x, ext.weights[0], 6), buf) for buf in scratch)
    scratch = [buf for bufs in pool.values() for buf in bufs]
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
        [conv_backward(e.reshape(out_ch, h, wd), w).ravel() for e in np.eye(out_ch * h * wd)],
        axis=1,
    )
    assert np.max(np.abs(adjoint - dense.T)) <= 1e-12


def test_linearize_matches_forward_and_vjp():
    rng = np.random.default_rng(12)
    ext = random_extractor(5, 7, num_layers=3, channels=4, seed=9)
    X = TwoBlockPoint(rng.normal(size=35), rng.normal(size=35))
    feats, pullback = ext.linearize(X)
    assert np.array_equal(feats, ext.forward(X))
    # the pullback is reusable: each call sees the same linearization
    for _ in range(2):
        w = rng.normal(size=(ext.group_dim, 35))
        g, ref = pullback(w), ext.vjp(X, w)
        assert np.array_equal(g.x1, ref.x1) and np.array_equal(g.x2, ref.x2)


def _group_route_extractors():
    return [
        IdentityExtractor(5, 7),
        FeatureExtractor(5, 7, [np.eye(2).reshape(2, 2, 1, 1)], act_delta=0.01),
        random_extractor(5, 7, num_layers=3, channels=4, seed=9),
    ]


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("ext", _group_route_extractors(), ids=["identity", "cnn-1x1", "cnn-3"])
def test_linearize_groups_equal_the_feature_route(ext):
    # the group norms and the weighted pullback are bit for bit what the
    # stacked features give: group_norms(F) and vjp(X, F * r), for one
    # scale per group and for a scalar; the groups include zero groups
    # and, for eps = 5, a group whose norm equals eps
    rng = np.random.default_rng(31)
    x1 = rng.normal(size=35) * 10.0 ** rng.uniform(-50, 50, size=35)
    x2 = rng.normal(size=35) * 10.0 ** rng.uniform(-50, 50, size=35)
    x1[:4] = x2[:4] = 0.0
    x1[4], x2[4] = 3.0, 4.0
    X = TwoBlockPoint(x1, x2)
    norms, weighted_pullback = ext.linearize_groups(X)
    feats = ext.forward(X)
    ref_norms = group_norms(feats)
    assert _bits_equal(norms, ref_norms)
    if not isinstance(ext, FeatureExtractor) or len(ext.weights) == 1:
        assert np.all(norms[:4] == 0.0) and norms[4] == 5.0
    scales = [1.0 / np.maximum(ref_norms, eps) for eps in (5.0, 1e-300, 1e300, float(norms[7]))]
    scales += [1.0, 0.7, np.float64(2.5), np.array(-3.0)]
    for r in scales:
        g, ref = weighted_pullback(r), ext.vjp(X, feats * r)
        assert _bits_equal(g.x1, ref.x1) and _bits_equal(g.x2, ref.x2)
    # scaling by 1 is exact, so the pullback of 1 is the pullback of F
    g, ref = weighted_pullback(1.0), ext.vjp(X, feats)
    assert _bits_equal(g.x1, ref.x1) and _bits_equal(g.x2, ref.x2)


@pytest.mark.parametrize("ext", _group_route_extractors(), ids=["identity", "cnn-1x1", "cnn-3"])
def test_one_block_pullback_is_that_block_of_the_two_block_one(ext):
    # bit for bit, for a scalar and for one scale per group; each block is
    # a fresh array, so a caller may scale it in place
    rng = np.random.default_rng(33)
    X = TwoBlockPoint(rng.normal(size=35), rng.normal(size=35))
    norms, weighted_pullback = ext.linearize_groups(X)
    for r in (0.7, 1.0 / np.maximum(norms, float(np.median(norms)))):
        full = weighted_pullback(r)
        for block, ref in enumerate((full.x1, full.x2)):
            g = weighted_pullback(r, block)
            assert _bits_equal(g, ref)
            assert not any(np.shares_memory(g, x) for x in (X.x1, X.x2, norms))


@pytest.mark.parametrize("ext", _group_route_extractors(), ids=["identity", "cnn-1x1", "cnn-3"])
def test_linearize_groups_reject_wrong_lengths(ext):
    rng = np.random.default_rng(32)
    with pytest.raises(ValueError, match="expected two blocks of length 35"):
        ext.linearize_groups(TwoBlockPoint(rng.normal(size=34), rng.normal(size=35)))
    with pytest.raises(ValueError, match="expected two blocks of length 35"):
        ext.linearize_groups(TwoBlockPoint(rng.normal(size=35), rng.normal(size=36)))
    weighted_pullback = ext.linearize_groups(
        TwoBlockPoint(rng.normal(size=35), rng.normal(size=35))
    )[1]
    for r in (np.ones(34), np.ones(36), np.ones((1, 35)), np.ones((ext.group_dim, 35))):
        with pytest.raises(ValueError, match=r"scales must be a scalar or have shape \(35,\)"):
            weighted_pullback(r)
    with pytest.raises(ValueError, match="weights must have shape"):
        ext.vjp(TwoBlockPoint(np.ones(35), np.ones(35)), np.ones((ext.group_dim, 34)))


def test_identity_linearize_groups_stacks_nothing():
    # the weighted pullback reads the point's own blocks; its results are
    # fresh arrays
    X = TwoBlockPoint(np.arange(6.0), -np.arange(6.0))
    norms, weighted_pullback = IdentityExtractor(2, 3).linearize_groups(X)
    g = weighted_pullback(1.0)
    for out in (norms, g.x1, g.x2):
        assert not np.shares_memory(out, X.x1) and not np.shares_memory(out, X.x2)
    assert np.array_equal(g.x1, X.x1) and np.array_equal(g.x2, X.x2)


def test_mixed_kernels_match_naive_layers():
    # layers of different kernel widths share the widest one's row pitch;
    # features match the layer-by-layer naive composition and the pullback
    # is the adjoint of the Jacobian
    rng = np.random.default_rng(13)
    shapes = [(3, 2, 5, 3), (4, 3, 1, 1), (2, 4, 3, 5)]
    weights = [rng.normal(size=s) * 0.5 for s in shapes]
    ext = FeatureExtractor(6, 7, weights, act_delta=0.1)
    X = TwoBlockPoint(rng.normal(size=42), rng.normal(size=42))
    a = np.stack([X.x1.reshape(6, 7), X.x2.reshape(6, 7)])
    for w in weights[:-1]:
        a = smoothed_relu(naive_conv(a, w), 0.1)
    ref = naive_conv(a, weights[-1]).reshape(2, -1)
    assert np.allclose(ext.forward(X), ref, rtol=0.0, atol=1e-12)
    pullback = ext.linearize(X)[1]
    d1, d2 = rng.normal(size=42), rng.normal(size=42)
    wts = rng.normal(size=(2, 42))
    h = 1e-6
    jd = (
        ext.forward(TwoBlockPoint(X.x1 + h * d1, X.x2 + h * d2))
        - ext.forward(TwoBlockPoint(X.x1 - h * d1, X.x2 - h * d2))
    ) / (2 * h)
    g = pullback(wts)
    assert float(np.sum(jd * wts)) == pytest.approx(np.dot(d1, g.x1) + np.dot(d2, g.x2), rel=1e-6)


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
    feats = ext.forward(TwoBlockPoint(np.zeros(9), np.zeros(9)))
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
    with pytest.raises(ValueError, match="layer 0: kernel must have at least one output channel"):
        FeatureExtractor(4, 4, [np.zeros((0, 2, 3, 3))], act_delta=0.01)


@pytest.mark.parametrize("act_delta", [np.nan, np.inf, -np.inf])
def test_non_finite_act_delta_is_rejected(act_delta):
    with pytest.raises(ValueError, match="act_delta must be positive"):
        random_extractor(8, 8, act_delta=act_delta)
    with pytest.raises(ValueError, match="act_delta must be positive"):
        FeatureExtractor(4, 4, [np.zeros((2, 2, 3, 3))], act_delta=act_delta)
    if not act_delta == np.inf:
        with pytest.raises(ValueError, match="act_delta must be positive"):
            smoothed_relu_deriv(np.zeros(3), act_delta)


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


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_layer_bounds_equal_the_per_tap_oracle(kernel):
    rng = np.random.default_rng(kernel)
    chans = [2, 1, 8, 3, 16, 16]
    weights = [rng.normal(size=(o, i, kernel, kernel)) for i, o in zip(chans, chans[1:])]
    assert _layer_bounds(weights) == layer_bounds(weights)


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
