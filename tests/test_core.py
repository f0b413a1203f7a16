import dataclasses
import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from lpam import core, extractor
from lpam.core import (
    NumericError,
    TwoBlockPoint,
    grad_phi_eps,
    phi_eps,
    scratch,
)
from lpam.objectives import (
    JointRecovery,
    QuadraticPoint,
    QuadraticToy,
    RecoveryPoint,
    grad_r_eps,
)
from lpam.operators import InstanceSpec, KSpaceData, MaskedDft, generate_instance
from lpam.solver import LpamConfig, lpam_run, u_step, v_step_with_linesearch

from tests.oracles import finite_difference_grad


def _cnn_objective(num_layers=4):
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    ext = extractor.random_extractor(8, 8, num_layers=num_layers, channels=8, seed=1)
    return JointRecovery(inst.dft, inst.kspace, ext, 0.0093)


def _identity_objective():
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    return JointRecovery(inst.dft, inst.kspace, extractor.IdentityExtractor(8, 8), 0.0093)


def _count_calls(monkeypatch, owner, name) -> list:
    """Record one entry per call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_dots(monkeypatch) -> list:
    """Record the first operand of every dot product taken: the package takes
    each through its modules' bindings of numpy's kernels (``lpam.core._dot``
    and ``_vdot``), and any through ``np.dot`` or ``np.vdot`` counts too."""
    dotted = []

    def counting(real):
        def dot(a, b, *rest):
            dotted.append(a)
            return real(a, b, *rest)

        return dot

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lpam"]
    for module in (np, *modules):
        for name in ("dot", "vdot", "_dot", "_vdot"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(vars(module)[name]))
    return dotted


def _count_forward_passes(monkeypatch) -> list:
    """Record one entry per activation-derivative evaluation: L-1 per
    extractor forward pass, each hidden layer's derivative once."""
    return _count_calls(monkeypatch, extractor, "smoothed_relu_deriv")


def _count_pullbacks(monkeypatch, derivs: list) -> list:
    """Record, per call of a convolutional extractor's pullback, how many
    activation derivatives (entries of ``derivs``) it evaluated."""
    calls = []
    real = extractor.FeatureExtractor.linearize

    def linearize(self, X):
        feats, pullback = real(self, X)

        def counting(w):
            before = len(derivs)
            g = pullback(w)
            calls.append(len(derivs) - before)
            return g

        return feats, counting

    monkeypatch.setattr(extractor.FeatureExtractor, "linearize", linearize)
    return calls


def test_point_basics():
    X = TwoBlockPoint([3.0, 4.0], [0.0])
    assert X.n == 2 and X.m == 1
    assert X.norm() == pytest.approx(5.0)
    Y = TwoBlockPoint([0.0, 0.0], [2.0])
    d1, d2 = X.diff_norms(Y)
    assert d1 == pytest.approx(5.0)
    assert d2 == pytest.approx(2.0)
    Z = TwoBlockPoint(np.zeros(2), np.zeros(1))
    assert Z.norm() == 0.0
    assert X.is_finite()
    assert not TwoBlockPoint([np.inf], [0.0]).is_finite()


def test_is_finite_catches_every_nan_and_infinity():
    # a sum of squares decides the common case in one pass; finite entries
    # of any size, and empty blocks, must still pass, and any NaN (quiet or
    # signalling) or infinity must fail, without a floating-point warning
    rng = np.random.default_rng(5)
    snan = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    for n in (0, 1, 7, 1000):
        for scale in (5e-324, 1e-300, 1.0, 1e154, 1.7e308):
            x = rng.uniform(-1.0, 1.0, size=n) * scale
            assert TwoBlockPoint(x, x[::-1].copy()).is_finite()
            assert TwoBlockPoint(x, np.zeros(0)).is_finite()
            for bad in (np.nan, -np.nan, np.inf, -np.inf, snan):
                for pos in {0, n // 2, n - 1} if n else ():
                    y = x.copy()
                    y[pos] = bad
                    assert not TwoBlockPoint(y, x).is_finite()
                    assert not TwoBlockPoint(x, y).is_finite()


def test_diff_norms_equal_numpy_norm():
    rng = np.random.default_rng(6)
    for n in (0, 1, 5, 4096):
        X = TwoBlockPoint(rng.normal(size=n) * 1e100, rng.normal(size=n))
        Y = TwoBlockPoint(rng.normal(size=n) * 1e100, rng.normal(size=n) * 1e-200)
        ref = (np.linalg.norm(X.x1 - Y.x1), np.linalg.norm(X.x2 - Y.x2))
        assert X.diff_norms(Y) == ref


def test_norm_reuses_the_squared_block_norms_of_is_finite(monkeypatch):
    # one dot product per block serves is_finite and every norm
    rng = np.random.default_rng(7)
    x1, x2 = rng.normal(size=50) * 1e100, rng.normal(size=30)
    want = float(np.sqrt(np.dot(x1, x1) + np.dot(x2, x2)))
    dots = _count_dots(monkeypatch)
    X = TwoBlockPoint(x1, x2)
    assert X.is_finite()
    assert X.norm() == want and X.norm() == want
    assert len(dots) == 2


def test_gradient_norm_costs_no_dot_products(monkeypatch):
    # grad_phi_eps's finiteness check leaves the squared block norms on the
    # gradient, so the solver's norm of it takes no further dot product
    obj = _identity_objective()
    G = grad_phi_eps(obj, obj.zero_filled(), 0.01)
    want = float(np.sqrt(np.dot(G.x1, G.x1) + np.dot(G.x2, G.x2)))
    dots = _count_dots(monkeypatch)
    assert G.norm() == want
    assert dots == []


def test_squared_block_norms_overflow_without_a_warning():
    # warnings are errors here, and no errstate is open: the squared norms
    # of blocks of 1e200 overflow to inf silently, with np.dot's bits, as do
    # those of finite blocks of any size, scale and stride
    X = TwoBlockPoint(np.full(1024, 1e200), np.full(3, -1e200))
    assert X.is_finite()
    assert X.norm() == np.inf
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 33, 1024, 65536):
        for scale in (1e-150, 1.0, 1e150, 1e200):
            x = rng.normal(size=2 * n) * scale
            for block in (x[:n], x[::2]):
                with np.errstate(over="ignore"):
                    want = np.dot(block, block)
                got = TwoBlockPoint(block, block)._squared_norms()[0]
                assert got.tobytes() == want.tobytes()


def _dot_outcome(dot, a, b):
    """The bytes of dot(a, b) under the warnings-as-errors filter, or the
    warning it raised as (category, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.float64(dot(a, b)).tobytes()
        except Warning as w:
            return type(w), str(w)


@pytest.mark.parametrize("n", [0, 1, 7, 1024, 16384])
def test_dot_bindings_give_numpys_bits_and_warnings(n):
    # the bindings skip numpy's dispatch layer and nothing else: the same
    # bits as np.vdot and np.dot, and a warning, an error here, exactly
    # where they give one: vdot overflows silently and dot warns
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n) * 1e-150
    big = np.full(n, 1e200)
    part = x.copy()
    part[n // 2 :] = -1e200
    pairs = [(x, y), (x, x), (x[::-1], y), (big, big), (part, part), (big, -x), (y, y)]
    for binding, public in ((core._vdot, np.vdot), (core._dot, np.dot)):
        for a, b in pairs:
            assert _dot_outcome(binding, a, b) == _dot_outcome(public, a, b)
    if n:
        assert _dot_outcome(core._vdot, big, big) == np.float64(np.inf).tobytes()
        assert _dot_outcome(core._dot, big, big)[0] is RuntimeWarning


def test_quadratic_overflow_is_a_numeric_error_without_a_warning():
    # warnings are errors here, and no errstate is open: an overflowing
    # term is named, and the per-call methods read inf
    obj = QuadraticToy()
    with pytest.raises(NumericError, match="'h1'"):
        phi_eps(obj, TwoBlockPoint([1e200], [-1e200]), 1.0)
    assert obj.h1(np.array([1e200]), 1.0) == np.inf
    # each block's square is finite, their difference's is not
    with pytest.raises(NumericError, match="'h'"):
        phi_eps(obj, TwoBlockPoint([1e154], [-1e154]), 1.0)
    assert obj.h(np.array([1e154]), np.array([-1e154]), 1.0) == np.inf
    # each term is finite, their sum is not
    r = 1.3038e154
    with pytest.raises(NumericError, match="sum"):
        phi_eps(obj, TwoBlockPoint([r, 0.0], [r / 2, 0.8660254 * r]), 1.0)
    X = TwoBlockPoint([1e200], [-1e200])
    assert X.diff_norms(TwoBlockPoint([-1e200], [1e200])) == (np.inf, np.inf)


def test_quadratic_terms_and_diff_norms_keep_the_bits_of_np_dot():
    rng = np.random.default_rng(9)
    toy = QuadraticToy()
    for n in (1, 2, 7, 33, 1024):
        x = rng.normal(size=2 * n)
        y = rng.normal(size=n) * 3.0
        for x1 in (x[:n], x[::2]):
            d = x1 - y
            P = toy.point(x1, y)
            assert P.h(1.0) == toy.h(x1, y, 1.0) == 0.5 * float(np.dot(d, d))
            assert toy.h1(x1, 1.0) == 0.5 * float(np.dot(x1, x1))
            assert toy.h2(y, 1.0) == 0.5 * float(np.dot(y, y))
            got = TwoBlockPoint(x1, y).diff_norms(TwoBlockPoint(y, x1))
            assert got == (np.sqrt(np.dot(d, d)), np.sqrt(np.dot(d, d)))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_joint_recovery_rejects_a_negative_or_non_finite_lam(lam):
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    with pytest.raises(ValueError, match="regularization weight"):
        JointRecovery(inst.dft, inst.kspace, extractor.IdentityExtractor(8, 8), lam)


@pytest.mark.parametrize(
    "ext",
    [
        extractor.random_extractor(8, 32, num_layers=2, channels=2),  # same size, wrong shape
        extractor.IdentityExtractor(8, 8),
        extractor.IdentityExtractor(32, 8),
    ],
    ids=["cnn-8x32", "identity-8x8", "identity-32x8"],
)
def test_joint_recovery_rejects_an_extractor_of_another_shape(ext):
    # the extractor's image is the operator's, or the run would treat a
    # 16x16 image as some other shape (or fail only at the first gradient)
    inst = generate_instance(InstanceSpec(height=16, width=16), 0)
    with pytest.raises(ValueError, match="operator is 16x16"):
        JointRecovery(inst.dft, inst.kspace, ext, 0.0093)


def test_joint_recovery_refuses_data_sampled_on_another_mask():
    # the data hold the values at their own operator's sampled frequencies,
    # so paired with another mask they would be subtracted at the wrong
    # frequencies: a mask with one sample fewer and one with one sample
    # moved (the same count) are both refused
    inst = generate_instance(InstanceSpec(height=16, width=16), 0)
    ext = extractor.IdentityExtractor(16, 16)
    mask = inst.dft.mask
    fewer = mask.copy()
    fewer.flat[np.flatnonzero(mask)[-1]] = False
    moved = fewer.copy()
    moved.flat[np.flatnonzero(~mask)[0]] = True
    assert moved.sum() == mask.sum()
    for other in (fewer, moved):
        dft = MaskedDft(other)
        data = KSpaceData(dft, dft.sample(inst.kspace.f1), dft.sample(inst.kspace.f2))
        with pytest.raises(ValueError, match="sampled on another mask"):
            JointRecovery(inst.dft, data, ext, 0.0093)
        with pytest.raises(ValueError, match="sampled on another mask"):
            JointRecovery(dft, inst.kspace, ext, 0.0093)
    # another operator on an equal mask samples the same frequencies
    obj = JointRecovery(MaskedDft(mask.copy()), inst.kspace, ext, 0.0093)
    assert obj.kspace is inst.kspace


# every point class, as made from two blocks
POINT_CLASSES = {
    "TwoBlockPoint": TwoBlockPoint,
    "QuadraticPoint": QuadraticToy().point,
    "RecoveryPoint": lambda x1, x2: _identity_objective().point(x1, x2),
}


@pytest.mark.parametrize("make", POINT_CLASSES.values(), ids=list(POINT_CLASSES))
@pytest.mark.parametrize(
    "blocks",
    [
        (np.zeros((8, 8)), np.zeros(64)),
        (np.zeros(64), np.zeros((64, 1))),
        (np.float64(0.0), np.zeros(64)),
        (np.zeros(64), 0.0),
    ],
    ids=["2-d first", "2-d second", "0-d first", "0-d second"],
)
def test_point_rejects_matrices(make, blocks):
    with pytest.raises(ValueError, match="1-d"):
        make(*blocks)


@pytest.mark.parametrize("make", POINT_CLASSES.values(), ids=list(POINT_CLASSES))
def test_points_hold_float64_blocks(make):
    # lists, int and float32 arrays are converted; a float64 array is held
    # as it is, not copied
    ints = np.arange(64)
    x2 = np.linspace(0.0, 1.0, 64)
    for x1 in (ints.tolist(), ints, ints.astype(np.float32)):
        P = make(x1, x2)
        assert P.x1.dtype == P.x2.dtype == np.float64
        assert np.array_equal(P.x1, ints) and P.x2 is x2


@pytest.mark.parametrize("make", POINT_CLASSES.values(), ids=list(POINT_CLASSES))
def test_points_are_frozen(make):
    # the blocks cannot be assigned or deleted on any point class, nor a
    # bound point's objective or a value it keeps
    P = make(np.zeros(64), np.ones(64))
    names = ["x1", "x2"]
    if type(P) is not TwoBlockPoint:
        P.h1(0.1)  # a recovery point keeps its residuals
        P.h(0.1)  # a quadratic point keeps its difference
        names += ["obj", "_d" if isinstance(P, QuadraticPoint) else "_residuals"]
    held = dict(vars(P))
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, name, np.ones(64))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(P, name)
    assert vars(P).keys() == held.keys()
    assert all(vars(P)[name] is value for name, value in held.items())
    assert np.array_equal(P.x1, np.zeros(64)) and np.array_equal(P.x2, np.ones(64))


def test_quadratic_point_forms_its_difference_once():
    # h and the joint gradient's first block read one kept x1 - x2; the
    # second block is x2 - x1, +0.0 where the blocks are equal, as is the
    # first
    rng = np.random.default_rng(4)
    x1 = np.concatenate([rng.normal(size=61), [0.0, -0.0, 1.5]])
    x2 = np.concatenate([rng.normal(size=61), [0.0, -0.0, 1.5]])
    P = QuadraticToy().point(x1, x2)
    h = P.h(0.1)
    g1, g2 = P.grad_h(0.1)
    assert P.grad_h(0.2)[0] is g1 and P._diff() is g1
    assert h == 0.5 * float(np.dot(g1, g1))
    assert g1.tobytes() == (x1 - x2).tobytes()
    assert g2.tobytes() == (x2 - x1).tobytes()
    assert not np.signbit(g1[-3:]).any() and not np.signbit(g2[-3:]).any()


def test_point_copy_is_independent():
    X = TwoBlockPoint([1.0], [2.0])
    Y = X.copy()
    Y.x1[0] = 9.0
    assert X.x1[0] == 1.0


def test_phi_eps_quadratic_hand_value():
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0, 0.0], [0.0, 1.0])
    # 0.5*1 + 0.5*1 + 0.5*(1+1)
    assert phi_eps(obj, X, 0.1) == pytest.approx(2.0)


def test_phi_eps_requires_positive_eps():
    with pytest.raises(ValueError):
        phi_eps(QuadraticToy(), TwoBlockPoint(np.zeros(1), np.zeros(1)), 0.0)
    with pytest.raises(ValueError):
        grad_phi_eps(QuadraticToy(), TwoBlockPoint(np.zeros(1), np.zeros(1)), -1.0)


def test_phi_eps_names_nonfinite_term():
    class BadPoint(QuadraticPoint):
        def h2(self, eps):
            return float("nan")

    class Bad(QuadraticToy):
        def point(self, x1, x2):
            return BadPoint(x1, x2, self)

    with pytest.raises(NumericError, match="h2"):
        phi_eps(Bad(), TwoBlockPoint(np.zeros(2), np.zeros(2)), 0.1)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    obj = QuadraticToy()
    for _ in range(5):
        X = TwoBlockPoint(rng.normal(size=4), rng.normal(size=4))
        g = grad_phi_eps(obj, X, 0.3)
        fd = finite_difference_grad(obj, X, 0.3)
        assert np.allclose(g.x1, fd.x1, atol=1e-7)
        assert np.allclose(g.x2, fd.x2, atol=1e-7)


def test_grad_rejects_nonfinite():
    class BadPoint(QuadraticPoint):
        def grad_h(self, eps):
            return np.full_like(self.x1, np.nan), self.x2 - self.x1

    class Bad(QuadraticToy):
        def point(self, x1, x2):
            return BadPoint(x1, x2, self)

    with pytest.raises(NumericError, match="entries"):
        grad_phi_eps(Bad(), TwoBlockPoint(np.zeros(2), np.zeros(2)), 0.1)
    # every entry is finite, the norm is not
    with pytest.raises(NumericError, match="norm overflows"):
        grad_phi_eps(QuadraticToy(), TwoBlockPoint([5.5e153], [-5.5e153]), 0.1)


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
@pytest.mark.parametrize("regime", ["inside", "outside", "mixed", "tie"])
def test_joint_recovery_grad_h_matches_partials(make, regime):
    # the per-call partials take no point, yet give a point's grad_h bit for
    # bit in each of its regimes: every group inside the eps-ball, every
    # group outside, some of each, and the largest norm equal to eps, which
    # the tie rule puts inside
    obj = make()
    rng = np.random.default_rng(1)
    x1, x2 = rng.normal(size=64), rng.normal(size=64)
    norms = obj.extractor.linearize_groups(TwoBlockPoint(x1, x2))[0]
    lo, hi = norms.min(), norms.max()
    eps = float({"inside": 2 * hi, "outside": lo / 2, "mixed": np.median(norms), "tie": hi}[regime])
    assert (hi <= eps) == (regime in ("inside", "tie")) and (lo > eps) == (regime == "outside")
    g1, g2 = obj.point(x1, x2).grad_h(eps)
    assert np.array_equal(g1, obj.grad1_h(x1, x2, eps))
    assert np.array_equal(g2, obj.grad2_h(x1, x2, eps))


def test_equal_group_norms_below_eps_take_the_weights_path():
    # constant images give every group the same norm, so below it the key
    # max(eps, smallest norm) is the largest norm, and the gradient must be
    # lam times the weighted pullback, not lam/eps times the pullback of 1:
    # on a fresh point, on one that first served an eps above every norm,
    # and again from the pullback that point keeps
    obj = _identity_objective()
    x1, x2, eps = np.full(64, 0.3), np.full(64, 0.4), 0.25
    norms, pullback = obj.extractor.linearize_groups(TwoBlockPoint(x1, x2))
    assert norms.min() == norms.max() > eps
    g = grad_r_eps(norms, pullback, eps)
    ref = obj.lam * g.x1, obj.lam * g.x2
    partials = obj.grad1_h(x1, x2, eps), obj.grad2_h(x1, x2, eps)
    served = obj.point(x1, x2)
    served.grad_h(0.6)
    for P in (obj.point(x1, x2), served, served):
        for gp, r, partial in zip(P.grad_h(eps), ref, partials):
            assert np.array_equal(gp, r) and np.array_equal(gp, partial)


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
def test_residual_step_and_line_search_trials_build_one_point_each(monkeypatch, make):
    # the joint partials at (z1, x2) and (u1, z2), and at each trial's
    # (v1, x2), are taken without a point, so the candidate and each trial
    # are the only points made
    obj = make()
    eps = 0.01
    X = obj.evaluate(obj.zero_filled())
    phi_x, gx = phi_eps(obj, X, eps), grad_phi_eps(obj, X, eps)
    points = _count_calls(monkeypatch, RecoveryPoint, "__init__")
    u_step(obj, X, eps, (0.5, 2.0, 0.5, 2.0))
    assert len(points) == 1
    points.clear()
    # a decrease constant near 1 makes the first trials fail
    config = LpamConfig(ls_delta=0.99)
    _, ls_count, _ = v_step_with_linesearch(obj, X, eps, phi_x, gx, config)
    assert ls_count >= 1
    assert len(points) == ls_count + 1


@pytest.mark.parametrize("num_layers", [2, 4])
def test_grad_phi_eps_runs_one_forward_pass(monkeypatch, num_layers):
    obj = _cnn_objective(num_layers=num_layers)
    X = obj.zero_filled()
    calls = _count_forward_passes(monkeypatch)
    grad_phi_eps(obj, X, 0.05)
    assert len(calls) == num_layers - 1


def test_residual_iteration_runs_four_forward_passes(monkeypatch):
    # one at X0 (phi and gradient), two partial gradients in the residual
    # update, one at U (phi for the safeguard and the accepted gradient)
    obj = _cnn_objective()
    calls = _count_forward_passes(monkeypatch)
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=1))
    assert state.trace[0].branch == "u"
    assert len(calls) == 4 * 3


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
def test_evaluated_point_computes_group_norms_once(monkeypatch, make):
    # the point takes its group norms and weighted pullback from one
    # linearize_groups call and serves every eps from them; only the
    # convolutional extractor goes through the stacked-feature group_norms
    obj = make()
    calls = _count_calls(monkeypatch, type(obj.extractor), "linearize_groups")
    stacked = _count_calls(monkeypatch, extractor, "group_norms")
    rng = np.random.default_rng(3)
    P = obj.point(rng.normal(size=64), rng.normal(size=64))
    for eps in (0.05, 0.05 * 0.9):
        P.h(eps)
        P.grad_h(eps)
    assert len(calls) == 1
    assert len(stacked) == (1 if make is _cnn_objective else 0)


def _check_pass_counts(monkeypatch, eps0, iters, backward_passes):
    obj = _cnn_objective()
    layers = len(obj.extractor.weights)
    forward = _count_forward_passes(monkeypatch)
    backward = _count_pullbacks(monkeypatch, forward)
    convs = _count_calls(monkeypatch, extractor, "_conv")
    relu = _count_calls(monkeypatch, extractor, "smoothed_relu")
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(eps0=eps0, max_iter=iters))
    assert [(r.branch, r.reduced) for r in state.trace] == [("u", True)] * iters
    assert len(forward) == (1 + 3 * iters) * (layers - 1)
    assert backward == [0] * backward_passes
    assert len(convs) == (1 + 3 * iters + backward_passes) * layers
    assert relu == []


def test_reducing_residual_iterations_reuse_features(monkeypatch):
    # after a reduction the point's features and activation derivatives are
    # reused: each iteration runs 3 forward passes (two partial gradients,
    # U) and 3 backward passes (two partial gradients, gradient at U), plus
    # in the first iteration the gradient at X0.  Every group lies inside
    # the eps-ball, so the gradient at X for the new eps reuses X's pullback
    # of its features.  A forward pass evaluates each hidden layer's
    # derivative once and a backward pass none, and each pass runs one
    # convolution per layer
    _check_pass_counts(monkeypatch, 0.01, 8, 4 + 3 * 7)


@pytest.mark.parametrize(
    "eps0, iters, backward_passes",
    [
        (1e-3, 5, 4 * 5),  # some groups inside the eps-ball, some outside
        (1e-4, 8, 4 + 3 * 7),  # every group outside
    ],
)
def test_reducing_iterations_pull_back_again_only_at_mixed_points(
    monkeypatch, eps0, iters, backward_passes
):
    # a point the eps-ball splits pulls back again at the new eps, a point
    # with every group outside does not
    _check_pass_counts(monkeypatch, eps0, iters, backward_passes)


# eps values on each side of the group norms at the zero-filled start of
# the CNN objective, which run from 6.2e-4 to 1.2e-3
INSIDE, MIXED, OUTSIDE = (0.01, 0.002), (1.1e-3, 8e-4), (5e-4, 1e-4)


def _start_and_norms():
    obj = _cnn_objective()
    X = obj.zero_filled()
    norms = extractor.group_norms(obj.extractor.forward(X))
    assert max(INSIDE) > min(INSIDE) >= norms.max()
    assert norms.max() > max(MIXED) > min(MIXED) > norms.min()
    assert norms.min() > max(OUTSIDE) > min(OUTSIDE)
    return obj, X, norms


def _direct_grad_h(obj, X, eps, norms):
    # the pullback of the features weighted by 1/max(||g||, eps)
    feats, pullback = obj.extractor.linearize(X)
    g = pullback(feats * (1.0 / np.maximum(norms, eps)))
    return obj.lam * g.x1, obj.lam * g.x2


def test_all_outside_gradient_is_the_same_at_every_eps():
    obj, X, norms = _start_and_norms()
    ref = _direct_grad_h(obj, X, OUTSIDE[0], norms)
    for eps in OUTSIDE:
        for g, r in zip(obj.point(X.x1, X.x2).grad_h(eps), ref):
            assert np.array_equal(g, r)


def test_mixed_gradient_is_the_direct_pullback():
    obj, X, norms = _start_and_norms()
    for eps in MIXED:
        for g, r in zip(obj.point(X.x1, X.x2).grad_h(eps), _direct_grad_h(obj, X, eps, norms)):
            assert np.array_equal(g, r)


def test_all_inside_gradient_is_the_rescaled_pullback():
    # lam/eps times the pullback of the features, not the pullback of the
    # features times 1/eps: the same up to rounding
    obj, X, norms = _start_and_norms()
    for eps in INSIDE:
        for g, r in zip(obj.point(X.x1, X.x2).grad_h(eps), _direct_grad_h(obj, X, eps, norms)):
            assert np.linalg.norm(g - r) <= 1e-14 * np.linalg.norm(r)


def test_gradient_does_not_depend_on_the_eps_served_before():
    obj, X, _ = _start_and_norms()
    every_eps = INSIDE + MIXED + OUTSIDE
    for eps in every_eps:
        fresh = obj.point(X.x1, X.x2).grad_h(eps)
        served = obj.point(X.x1, X.x2)
        for other in every_eps:
            if other != eps:
                served.grad_h(other)
        for g, r in zip(served.grad_h(eps), fresh):
            assert np.array_equal(g, r)


def test_identity_residual_iterations_run_one_residual_pair_per_point(monkeypatch):
    # the k-space residuals at X0 and at each accepted U, both channels from
    # one transform, nothing more; no single-channel transform runs
    obj = _identity_objective()
    calls = _count_calls(monkeypatch, MaskedDft, "residual_pair")
    single = _count_calls(monkeypatch, MaskedDft, "forward")
    k = 6
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=k))
    assert [r.branch for r in state.trace] == ["u"] * k
    assert len(calls) == k + 1
    assert single == []


def test_recovery_point_takes_each_squared_norm_once(monkeypatch):
    # the pair kernels balance their two channels by the squared norms of
    # the blocks and of the residuals; a point holds both (its finiteness
    # check and its fidelities read them), so over a finiteness check, a
    # value and a gradient each is one dot product
    obj = _identity_objective()
    rng = np.random.default_rng(5)
    P = obj.point(rng.normal(size=64), rng.normal(size=64))
    dotted = _count_dots(monkeypatch)
    assert P.is_finite()
    phi_eps(obj, P, 1e-2)
    grad_phi_eps(obj, P, 1e-2)
    monkeypatch.undo()
    held = (P.x1, P.x2, *P._residuals)
    assert [sum(np.shares_memory(a, v) for a in dotted) for v in held] == [1, 1, 1, 1]


def test_quadratic_point_matches_per_call_methods():
    # the point takes its separable terms from the squared block norms it
    # holds and returns its blocks as their gradients, bit for bit the
    # per-call values
    obj = QuadraticToy()
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=64) * 1e3, rng.normal(size=64)
    P = obj.point(x1, x2)
    assert isinstance(P, QuadraticPoint)
    for got, want in (
        (P.h1(0.1), obj.h1(x1, 0.1)),
        (P.h2(0.1), obj.h2(x2, 0.1)),
        (P.h(0.1), obj.h(x1, x2, 0.1)),
    ):
        assert type(got) is float and got == want
    for got, want in (
        (P.grad_h1(0.1), obj.grad_h1(x1, 0.1)),
        (P.grad_h2(0.1), obj.grad_h2(x2, 0.1)),
        (P.grad_h(0.1)[0], obj.grad1_h(x1, x2, 0.1)),
        (P.grad_h(0.1)[1], obj.grad2_h(x1, x2, 0.1)),
    ):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
def test_evaluated_point_matches_per_call_methods(make):
    # the joint term goes through the same code both ways, so it is exact;
    # the point's fidelities come from one paired transform per direction,
    # which agrees within rtol with the one-channel MaskedDft methods and
    # with the objective's per-call methods
    rtol = 1e-13
    obj = make()
    rng = np.random.default_rng(2)
    x1, x2 = rng.normal(size=64), rng.normal(size=64)
    P = obj.evaluate(TwoBlockPoint(x1, x2))
    assert obj.evaluate(P) is P
    dft, data = obj.dft, obj.kspace
    for fid, grad, per_call_fid, per_call_grad, x, f in (
        (P.h1, P.grad_h1, obj.h1, obj.grad_h1, x1, data.f1),
        (P.h2, P.grad_h2, obj.h2, obj.grad_h2, x2, data.f2),
    ):
        for want in (dft.fidelity(x, f), per_call_fid(x, 0.05)):
            assert fid(0.05) == pytest.approx(want, rel=rtol)
        for ref in (dft.grad_fidelity(x, f), per_call_grad(x, 0.05)):
            assert np.linalg.norm(grad(0.05) - ref) <= rtol * np.linalg.norm(ref)
    for eps in (0.05, 0.05 * 0.9):
        assert P.h(eps) == obj.h(x1, x2, eps)
        gh = P.grad_h(eps)
        assert np.array_equal(gh[0], obj.grad1_h(x1, x2, eps))
        assert np.array_equal(gh[1], obj.grad2_h(x1, x2, eps))
        assert phi_eps(obj, P, eps) == P.h1(eps) + P.h2(eps) + P.h(eps)
        G = grad_phi_eps(obj, P, eps)
        assert np.array_equal(G.x1, P.grad_h1(eps) + gh[0])
        assert np.array_equal(G.x2, P.grad_h2(eps) + gh[1])


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
def test_evaluated_point_is_freed_without_the_cycle_collector(make):
    obj = make()
    P = obj.evaluate(obj.zero_filled())
    phi_eps(obj, P, 0.05)
    grad_phi_eps(obj, P, 0.05)
    ref = weakref.ref(P)
    gc.disable()
    try:
        del P
        assert ref() is None
    finally:
        gc.enable()


def test_run_hands_back_plain_points():
    obj = _identity_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=3))
    assert type(state.X) is TwoBlockPoint


@pytest.mark.parametrize(
    "make",
    [
        lambda: TwoBlockPoint(np.zeros(2), np.zeros(2)),
        lambda: MaskedDft(np.ones((2, 2), dtype=bool)),
        lambda: KSpaceData(MaskedDft(np.ones((2, 2), dtype=bool)), np.zeros(4), np.zeros(4)),
        lambda: generate_instance(InstanceSpec(height=4, width=4), 0),
    ],
    ids=["TwoBlockPoint", "MaskedDft", "KSpaceData", "Instance"],
)
def test_array_holders_compare_by_identity(make):
    # equal arrays in distinct holders: == and hash must not reach the arrays
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_scratch_is_made_once_per_key_and_thread():
    made = []

    def make():
        made.append(None)
        return (np.empty(3),)

    first = scratch(("test", 3), make)
    assert scratch(("test", 3), make) is first and len(made) == 1
    assert scratch(("other", 3), make) is not first and len(made) == 2
    elsewhere = []
    t = threading.Thread(target=lambda: elsewhere.append(scratch(("test", 3), make)))
    t.start()
    t.join(timeout=60)
    assert elsewhere[0] is not first and len(made) == 3
