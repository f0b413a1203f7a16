import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpam.core import TwoBlockPoint
from lpam.objectives import JointRecovery, grad_r_eps, r_eps
from lpam.operators import InstanceSpec, generate_instance
from lpam.extractor import IdentityExtractor, group_norms, random_extractor

from tests.oracles import check_c3, check_c4_stable_branch, half_count_m, l21_norm


def identity_vjp(w):
    # one scalar feature per group: pullback is the weight row itself
    return TwoBlockPoint(w[0].copy(), np.zeros(0))


def r_of(features, eps):
    return r_eps(group_norms(features), eps)


def grad_of(features, vjp, eps):
    return grad_r_eps(group_norms(features), lambda r: vjp(features * r), eps)


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


def _wide_range_groups(d):
    # 4000 groups of d entries over 300 decades, every 97th group zero
    rng = np.random.default_rng(d)
    f = rng.normal(size=(4000, d)) * 10.0 ** rng.uniform(-150, 150, size=(4000, d))
    f[::97] = 0.0
    return f


def test_two_channel_group_norms_add_the_two_squares():
    # for two rows the einsum adds x1*x1 and then x2*x2, so the identity
    # extractor's sqrt(x1*x1 + x2*x2) gives the same bits without stacking
    f = _wide_range_groups(2)
    f[::89, 1] = 0.0
    f[::83, 0] = 5e-324
    x1, x2 = f[:, 0].copy(), f[:, 1].copy()
    want = np.sqrt(x1 * x1 + x2 * x2).view(np.uint64)
    assert np.array_equal(group_norms(np.stack([x1, x2])).view(np.uint64), want)
    norms, _ = IdentityExtractor(40, 100).linearize_groups(TwoBlockPoint(x1, x2))
    assert np.array_equal(norms.view(np.uint64), want)


@pytest.mark.parametrize("d", [*range(1, 21), 64, 128, 129, 200])
def test_group_norms_bit_identical_to_numpy_sum(d):
    # the norms add each group's squares in order, which is numpy's running
    # sum; np.sum adds a contiguous group in order too below 8 terms, so up
    # to d = 7 (the identity extractor's d = 2 included) the norms are
    # bit-identical to the group-major np.sum
    f = _wide_range_groups(d)
    got = group_norms(np.ascontiguousarray(f.T)).view(np.uint64)
    in_order = np.sqrt(np.add.accumulate(f * f, axis=1)[:, -1])
    assert np.array_equal(got, in_order.view(np.uint64))
    if d <= 7:
        assert np.array_equal(got, np.sqrt(np.sum(f * f, axis=1)).view(np.uint64))


@pytest.mark.parametrize("d", [*range(8, 21), 64, 128, 129, 200])
def test_group_norms_close_to_numpy_sum(d):
    # from 8 terms on np.sum adds in eight strided accumulators, so the
    # in-order norms agree with it within a few ulps, not bit for bit
    f = _wide_range_groups(d)
    got = group_norms(np.ascontiguousarray(f.T))
    ref = np.sqrt(np.sum(f * f, axis=1))
    assert np.array_equal(got == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.max(np.abs(got[nz] - ref[nz]) / ref[nz]) <= 1e-15


def _masked_r_eps(norms, eps):
    # the boolean-mask formula, summed branch by branch
    inside = norms <= eps
    return float(np.sum(norms[inside] ** 2) / (2.0 * eps) + np.sum(norms[~inside] - eps / 2.0))


# r_eps sums min(norms, eps) and the excess over eps, not the two branches,
# so it agrees with the branchwise sum to rounding: within 6e-16 of an
# fsum oracle over 300 random 3,000-group cases, stated as R_EPS_RTOL
R_EPS_RTOL = 1e-14


def _fsum_r_eps(norms, eps):
    """The branchwise terms, each rounded once or twice, summed exactly."""
    return math.fsum(n * n / (2.0 * eps) if n <= eps else n - eps / 2.0 for n in norms)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_precomputed_norms_give_the_same_values(d):
    # r_eps and grad_r_eps read the group norms they are given; from
    # group_norms they agree with the branchwise formulas on norms that
    # np.sum takes from the features, the weights bit for bit below 8
    # channels
    rng = np.random.default_rng(10 + d)
    f = rng.normal(size=(d, 50)) * 0.1
    norms = group_norms(f)
    ref_norms = np.sqrt(np.sum(np.ascontiguousarray(f.T) ** 2, axis=1))
    for eps in (0.01, 0.1, 1.0):
        value = r_eps(norms, eps)
        g = grad_r_eps(norms, lambda r: flat_vjp(f * r), eps)
        assert value == pytest.approx(_masked_r_eps(ref_norms, eps), rel=R_EPS_RTOL, abs=0.0)
        if d <= 7:
            assert np.array_equal(g.x1, _masked_weights(f, eps).ravel())
        else:
            assert np.allclose(g.x1, _masked_weights(f, eps).ravel(), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_r_eps_matches_boolean_mask(d):
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
        assert r_eps(norms, e) == pytest.approx(_masked_r_eps(norms, e), rel=R_EPS_RTOL, abs=0.0)
    # all outside, no zero groups
    g = f[:, norms > 0]
    assert r_of(g, 1e-12) == pytest.approx(_masked_r_eps(group_norms(g), 1e-12), rel=R_EPS_RTOL)
    # zero groups only, exactly
    z = np.zeros((d, 5))
    assert r_of(z, 0.5) == _masked_r_eps(group_norms(z), 0.5) == 0.0


def test_r_eps_is_exact_where_its_terms_are():
    # dyadic norms and eps: every product, quotient and sum below is exact
    assert r_eps(np.array([1.0]), 0.5) == 0.75  # linear branch, 1 - 0.25
    assert r_eps(np.array([0.25]), 0.5) == 0.0625  # quadratic branch, 0.0625 / 1
    assert r_eps(np.array([0.5]), 0.5) == 0.25  # the tie, eps / 2
    assert r_eps(np.array([0.0, 0.25, 0.5, 2.0]), 0.5) == 0.0625 + 0.25 + 1.75
    assert r_eps(np.zeros(0), 0.5) == 0.0
    assert r_eps(np.zeros(3), 0.5) == 0.0


@st.composite
def norms_and_eps(draw):
    """Group norms around an eps: zero groups, ties, groups inside, groups
    a few ulps above eps (where n - eps/2 would cancel if formed as a
    difference of sums) and groups far outside."""
    eps = draw(st.floats(1e-100, 1e100))
    kinds = [
        st.just(0.0),
        st.just(eps),
        st.floats(1e-6, 1.0).map(lambda t: t * eps),
        st.integers(1, 2**20).map(lambda k: eps + k * math.ulp(eps)),
        st.floats(1.0, 1e6).map(lambda t: t * eps),
    ]
    # one kind for every group, all inside or all outside, or a mix
    which = draw(st.sampled_from([[0, 1, 2], [3, 4], list(range(5))]))
    norm = st.one_of([kinds[i] for i in which])
    return np.array(draw(st.lists(norm, max_size=60)), dtype=np.float64), eps


@given(norms_and_eps())
def test_r_eps_agrees_with_an_exact_sum_of_the_branches(case):
    norms, eps = case
    expected = _fsum_r_eps(norms.tolist(), eps)
    assert r_eps(norms, eps) == pytest.approx(expected, rel=R_EPS_RTOL, abs=0.0)


@given(norms_and_eps(), st.sampled_from([np.nan, np.inf]), st.data())
def test_r_eps_propagates_nan_and_inf(case, bad, data):
    norms, eps = case
    norms = np.insert(norms, data.draw(st.integers(0, norms.size)), bad)
    value = r_eps(norms, eps)
    assert np.isnan(value) if np.isnan(bad) else value == np.inf


@given(st.floats(max_value=0.0), st.lists(st.floats(0.0, 10.0), max_size=5))
def test_r_eps_refuses_a_nonpositive_eps(eps, norms):
    with pytest.raises(ValueError, match="eps must be positive"):
        r_eps(np.array(norms), eps)


def test_grad_weights_at_tie_and_zero_rows():
    # groups with ||g_i|| = eps, zero groups, one group inside and one outside
    eps = 5.0
    f = np.array([[3.0, 0.0, -4.0, 1.0, 6.0, 0.0], [4.0, 0.0, 3.0, 2.0, 8.0, 0.0]])
    assert group_norms(f)[0] == eps
    with np.errstate(all="raise"):
        g = grad_of(f, flat_vjp, eps)
        expected = _masked_weights(f, eps)
    assert np.array_equal(g.x1, expected.ravel())


def test_r_eps_branch_values():
    # single group, norm 1, eps 0.5: linear branch gives 1 - 0.25
    assert r_eps(np.array([1.0]), 0.5) == pytest.approx(0.75)
    # norm 0.3 inside eps 0.5: quadratic branch 0.09 / (2 * 0.5)
    assert r_eps(np.array([0.3]), 0.5) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        r_eps(np.array([1.0]), 0.0)


def test_r_eps_continuous_at_tie():
    # both branches agree when the group norm equals eps
    eps = 0.7
    assert r_eps(np.array([eps]), eps) == pytest.approx(eps / 2.0)


def test_grad_sign_vector_outside():
    x = np.array([2.0, -3.0, 1.5])
    g = grad_of(x[None, :], identity_vjp, 0.5)
    assert np.allclose(g.x1, np.sign(x))


def test_grad_scaled_inside():
    x = np.array([0.1, -0.2, 0.05])
    g = grad_of(x[None, :], identity_vjp, 0.5)
    assert np.allclose(g.x1, x / 0.5)


def test_grad_matches_value_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=6)
    eps = 0.05
    g = grad_of(x[None, :], identity_vjp, eps)
    h = 1e-7
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (r_of(xp[None, :], eps) - r_of(xm[None, :], eps)) / (2 * h)
        assert g.x1[i] == pytest.approx(fd, rel=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-3, 10.0))
def test_bracketing_property(seed, eps):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(3, 8))
    r = l21_norm(f)
    re = r_of(f, eps)
    n = f.shape[1]
    assert r - n * eps / 2.0 - 1e-12 <= re <= r + 1e-12
    # uniform closeness bound
    assert abs(re - r) <= n * eps / 2.0 + 1e-12


def test_half_count_m():
    m = half_count_m(10, 0.5)
    assert m(0.2) == pytest.approx(0.5)


def _recovery_obj(seed=0, lam=0.01, extractor=None):
    inst = generate_instance(InstanceSpec(height=8, width=8), seed)
    return JointRecovery(inst.dft, inst.kspace, extractor or IdentityExtractor(8, 8), lam)


def _m(obj):
    return half_count_m(obj.extractor.num_groups, obj.lam)


def _c3_draws(obj, m, seed, draws, scale=1.0):
    # check_c3 at random points and eps <= delta
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(draws):
        X = TwoBlockPoint(scale * rng.normal(size=64), scale * rng.normal(size=64))
        eps = float(rng.uniform(1e-3, 1.0))
        delta = float(rng.uniform(eps, 2.0))
        results.append(check_c3(obj, m, X, eps, delta))
    return results


def test_c3_equality_case():
    obj = _recovery_obj()
    X = TwoBlockPoint(np.zeros(64), np.zeros(64))
    assert check_c3(obj, _m(obj), X, 0.3, 0.3)


def test_c3_hand_case_boundary():
    # single group with norm 1: linear branch at eps = 0.5 gives
    # (1 - 0.25) + 0.25 = 1, quadratic branch at eps = 2 gives
    # 1/4 + 1 = 1.25, so the corrected values are ordered
    f = np.array([[1.0]])
    lhs = r_of(f, 0.5) + 0.5 / 2.0
    rhs = r_of(f, 2.0) + 2.0 / 2.0
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.25)
    assert lhs <= rhs + 1e-12


def test_c3_random_sweep():
    obj = _recovery_obj(seed=2)
    assert all(_c3_draws(obj, _m(obj), seed=3, draws=200))


def test_c3_rejects_bad_order():
    obj = _recovery_obj()
    with pytest.raises(ValueError):
        check_c3(obj, _m(obj), TwoBlockPoint(np.zeros(64), np.zeros(64)), 0.5, 0.1)


def test_c3_detects_missing_m():
    # dropping the correction breaks near-monotonicity: any point with
    # feature norms above both eps values has r_eps decreasing in eps
    obj = _recovery_obj(lam=1.0)
    X = TwoBlockPoint(np.ones(64), np.ones(64))
    assert not check_c3(obj, lambda eps: 0.0, X, 1e-3, 0.5)


def test_c3_random_sweep_cnn():
    # r_eps(g) + n*eps/2 is nondecreasing in eps group by group, whatever
    # extractor made the features, so m = lam*n*eps/2 holds for a CNN too
    # its feature norms are about 1e-3 of the input's scale: at scale 1 all
    # groups sit inside the eps-ball, at scale 1000 they straddle it and the
    # bound is tight (0.9 m fails 16 of those 200 draws)
    obj = _recovery_obj(seed=2, extractor=random_extractor(8, 8, seed=1))
    for scale in (1.0, 1000.0):
        assert all(_c3_draws(obj, _m(obj), seed=7, draws=200, scale=scale))


def test_c3_detects_missing_m_cnn():
    obj = _recovery_obj(extractor=random_extractor(8, 8, seed=1))
    assert not any(_c3_draws(obj, lambda eps: 0.0, seed=8, draws=20, scale=10.0))


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
        g = grad_of(f, vjp, 0.05)
        assert g.norm() <= np.sqrt(10) + 1e-12
