import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpam.core import TwoBlockPoint
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.extractor import IdentityExtractor, random_extractor
from lpam.smoothing import (
    check_c3,
    check_c4_stable_branch,
    grad_r_eps,
    group_norms,
    half_count_m,
    l21_norm,
    r_eps,
)


def identity_vjp(w):
    # one scalar feature per group: pullback is the weight row itself
    return TwoBlockPoint(w[0].copy(), np.zeros(0))


def test_group_norms_rows():
    f = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert np.allclose(group_norms(f), [5.0, 0.0])
    with pytest.raises(ValueError):
        group_norms(np.zeros(3))


def flat_vjp(w):
    # returns the group weights themselves, flattened row by row
    return TwoBlockPoint(w.ravel().copy(), np.zeros(0))


def _masked_weights(features, eps):
    # the branchwise weighting: 1/eps inside the eps-ball, 1/||g_i|| outside
    g = np.ascontiguousarray(features.T)  # group-major, as np.sum adds it
    norms = np.sqrt(np.sum(g * g, axis=1))
    scale = np.empty_like(norms)
    inside = norms <= eps
    scale[inside] = 1.0 / eps
    scale[~inside] = 1.0 / norms[~inside]
    return features * scale


@pytest.mark.parametrize("d", [*range(1, 21), 64, 128, 129, 200])
def test_group_norms_bit_identical_to_numpy_sum(d):
    # the row kernel reproduces the order in which np.sum adds each group
    # stored group-major: in order below 8 terms, 8 pairwise-combined
    # accumulators up to 128, and np.sum itself above that
    rng = np.random.default_rng(d)
    f = rng.normal(size=(4000, d)) * 10.0 ** rng.uniform(-150, 150, size=(4000, d))
    f[::97] = 0.0
    got = group_norms(np.ascontiguousarray(f.T))
    ref = np.sqrt(np.sum(f * f, axis=1))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("d", [1, 2, 8])
def test_precomputed_norms_give_the_same_values(d):
    rng = np.random.default_rng(10 + d)
    f = rng.normal(size=(d, 50)) * 0.1
    norms = group_norms(f)
    for eps in (0.01, 0.1, 1.0):
        assert r_eps(f, eps, norms) == r_eps(f, eps)
        g = grad_r_eps(f, flat_vjp, eps, norms)
        assert np.array_equal(g.x1, grad_r_eps(f, flat_vjp, eps).x1)


def _masked_r_eps(norms, eps):
    # the boolean-mask formula that r_eps's index take must match bit for bit
    inside = norms <= eps
    return float(np.sum(norms[inside] ** 2) / (2.0 * eps) + np.sum(norms[~inside] - eps / 2.0))


@pytest.mark.parametrize("d", [1, 2, 8])
def test_r_eps_bit_identical_to_boolean_mask(d):
    rng = np.random.default_rng(20 + d)
    f = rng.normal(size=(d, 3000)) * 10.0 ** rng.uniform(-3, 1, size=(1, 3000))
    f[:, ::7] = 0.0  # zero groups
    # ties at exactly eps, interleaved with groups on both sides
    mid = np.argsort(group_norms(f))[f.shape[1] // 2]
    f[:, ::11] = f[:, mid : mid + 1]
    norms = group_norms(f)
    eps = float(norms[mid])
    assert np.any(norms == eps) and np.any(norms < eps) and np.any(norms > eps)
    for e in (eps, 1e-9, 1e9):  # mixed, all outside but the zero groups, all inside
        assert r_eps(f, e, norms) == _masked_r_eps(norms, e)
    # all outside, no zero groups
    g = f[:, norms > 0]
    assert r_eps(g, 1e-12) == _masked_r_eps(group_norms(g), 1e-12)
    # zero groups only
    z = np.zeros((d, 5))
    assert r_eps(z, 0.5) == _masked_r_eps(group_norms(z), 0.5) == 0.0


def test_grad_weights_at_tie_and_zero_rows():
    # groups with ||g_i|| = eps, zero groups, one group inside and one outside
    eps = 5.0
    f = np.array([[3.0, 0.0, -4.0, 1.0, 6.0, 0.0], [4.0, 0.0, 3.0, 2.0, 8.0, 0.0]])
    assert group_norms(f)[0] == eps
    with np.errstate(all="raise"):
        g = grad_r_eps(f, flat_vjp, eps)
        expected = _masked_weights(f, eps)
    assert np.array_equal(g.x1, expected.ravel())


def test_r_eps_branch_values():
    # single group, norm 1, eps 0.5: linear branch gives 1 - 0.25
    assert r_eps(np.array([[1.0]]), 0.5) == pytest.approx(0.75)
    # norm 0.3 inside eps 0.5: quadratic branch 0.09 / (2 * 0.5)
    assert r_eps(np.array([[0.3]]), 0.5) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        r_eps(np.array([[1.0]]), 0.0)


def test_r_eps_continuous_at_tie():
    # both branches agree when the group norm equals eps
    eps = 0.7
    f = np.array([[eps]])
    assert r_eps(f, eps) == pytest.approx(eps / 2.0)


def test_grad_sign_vector_outside():
    x = np.array([2.0, -3.0, 1.5])
    g = grad_r_eps(x[None, :], identity_vjp, 0.5)
    assert np.allclose(g.x1, np.sign(x))


def test_grad_scaled_inside():
    x = np.array([0.1, -0.2, 0.05])
    g = grad_r_eps(x[None, :], identity_vjp, 0.5)
    assert np.allclose(g.x1, x / 0.5)


def test_grad_matches_value_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=6)
    eps = 0.05
    g = grad_r_eps(x[None, :], identity_vjp, eps)
    h = 1e-7
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (r_eps(xp[None, :], eps) - r_eps(xm[None, :], eps)) / (2 * h)
        assert g.x1[i] == pytest.approx(fd, rel=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-3, 10.0))
def test_bracketing_property(seed, eps):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(3, 8))
    r = l21_norm(f)
    re = r_eps(f, eps)
    n = f.shape[1]
    assert r - n * eps / 2.0 - 1e-12 <= re <= r + 1e-12
    # uniform closeness bound
    assert abs(re - r) <= n * eps / 2.0 + 1e-12


def test_half_count_m():
    m = half_count_m(10, 0.5)
    assert m(0.2) == pytest.approx(0.5)
    assert QuadraticToy().m_function()(1.0) == 0.0


def _recovery_obj(seed=0, lam=0.01, size=8):
    inst = generate_instance(InstanceSpec(height=size, width=size), seed)
    obj = JointRecovery(inst.dft, inst.kspace, IdentityExtractor(size, size), lam)
    return obj


def test_c3_equality_case():
    obj = _recovery_obj()
    X = TwoBlockPoint.zeros(64, 64)
    assert check_c3(obj, obj.m_function(), X, 0.3, 0.3)


def test_c3_hand_case_boundary():
    # single group with norm 1: linear branch at eps = 0.5 gives
    # (1 - 0.25) + 0.25 = 1, quadratic branch at eps = 2 gives
    # 1/4 + 1 = 1.25, so the corrected values are ordered
    f = np.array([[1.0]])
    lhs = r_eps(f, 0.5) + 0.5 / 2.0
    rhs = r_eps(f, 2.0) + 2.0 / 2.0
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.25)
    assert lhs <= rhs + 1e-12


def test_c3_random_sweep():
    obj = _recovery_obj(seed=2)
    m = obj.m_function()
    rng = np.random.default_rng(3)
    for _ in range(200):
        X = TwoBlockPoint(rng.normal(size=64), rng.normal(size=64))
        eps = float(rng.uniform(1e-3, 1.0))
        delta = float(rng.uniform(eps, 2.0))
        assert check_c3(obj, m, X, eps, delta)


def test_c3_rejects_bad_order():
    obj = _recovery_obj()
    with pytest.raises(ValueError):
        check_c3(obj, obj.m_function(), TwoBlockPoint.zeros(64, 64), 0.5, 0.1)


def test_c3_detects_missing_m():
    # dropping the correction breaks near-monotonicity: any point with
    # feature norms above both eps values has r_eps decreasing in eps
    obj = _recovery_obj(lam=1.0)
    X = TwoBlockPoint(np.ones(64), np.ones(64))
    assert not check_c3(obj, lambda eps: 0.0, X, 1e-3, 0.5)


def test_c4_all_groups_active():
    x = np.array([1.0, -1.0, 1.0])
    assert check_c4_stable_branch(x[None, :], identity_vjp, 0.1, 0.01)


def test_c4_detects_inside_group():
    x = np.array([1.0, 0.05, 1.0])  # middle group inside the 0.1-ball
    assert not check_c4_stable_branch(x[None, :], identity_vjp, 0.1, 0.01)


def test_c4_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        check_c4_stable_branch(np.ones((1, 2)), identity_vjp, 0.0, 0.1)


def test_c4_rescaled_extractor_point():
    # scale a random point so the smallest feature-group norm is 0.3,
    # then both eps below 0.3 give identical gradients
    ext = random_extractor(6, 6, num_layers=2, channels=4, seed=4)
    rng = np.random.default_rng(5)
    X = TwoBlockPoint(rng.normal(size=36), rng.normal(size=36))
    feats = ext.forward(X)
    feats *= 0.3 / group_norms(feats).min()
    vjp = lambda w: ext.vjp(X, w)
    assert check_c4_stable_branch(feats, vjp, 0.2, 0.1)


def test_grad_norm_bounded_by_group_count():
    # identity pullback: every group weight has norm at most 1
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = rng.normal(size=(2, 10))
        vjp = lambda w: TwoBlockPoint(w[0].copy(), w[1].copy())
        g = grad_r_eps(f, vjp, 0.05)
        assert g.norm() <= np.sqrt(10) + 1e-12
