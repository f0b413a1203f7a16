import gc
import weakref

import numpy as np
import pytest

from lpam import extractor, objectives, smoothing
from lpam.core import (
    NumericError,
    TwoBlockPoint,
    finite_difference_grad,
    grad_phi_eps,
    phi_eps,
)
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, MaskedDft, generate_instance
from lpam.solver import LpamConfig, lpam_run


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

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_forward_passes(monkeypatch) -> list:
    """Record one entry per smoothed-ReLU call: L-1 per extractor forward pass."""
    return _count_calls(monkeypatch, extractor, "smoothed_relu")


def test_point_basics():
    X = TwoBlockPoint([3.0, 4.0], [0.0])
    assert X.n == 2 and X.m == 1
    assert X.norm() == pytest.approx(5.0)
    Y = TwoBlockPoint([0.0, 0.0], [2.0])
    d1, d2 = X.diff_norms(Y)
    assert d1 == pytest.approx(5.0)
    assert d2 == pytest.approx(2.0)
    Z = TwoBlockPoint.zeros(2, 1)
    assert Z.norm() == 0.0
    assert X.is_finite()
    assert not TwoBlockPoint([np.inf], [0.0]).is_finite()


def test_point_rejects_matrices():
    with pytest.raises(ValueError):
        TwoBlockPoint(np.zeros((2, 2)), np.zeros(2))


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
        phi_eps(QuadraticToy(), TwoBlockPoint.zeros(1, 1), 0.0)
    with pytest.raises(ValueError):
        grad_phi_eps(QuadraticToy(), TwoBlockPoint.zeros(1, 1), -1.0)


def test_phi_eps_names_nonfinite_term():
    class Bad(QuadraticToy):
        def h2(self, x2, eps):
            return float("nan")

    with pytest.raises(NumericError, match="h2"):
        phi_eps(Bad(), TwoBlockPoint.zeros(2, 2), 0.1)


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
    class Bad(QuadraticToy):
        def grad1_h(self, x1, x2, eps):
            return np.full_like(x1, np.nan)

    with pytest.raises(NumericError):
        grad_phi_eps(Bad(), TwoBlockPoint.zeros(2, 2), 0.1)


def test_joint_recovery_grad_h_matches_partials():
    obj = _cnn_objective()
    rng = np.random.default_rng(1)
    x1, x2 = rng.normal(size=64), rng.normal(size=64)
    g1, g2 = obj.grad_h(x1, x2, 0.05)
    assert np.array_equal(g1, obj.grad1_h(x1, x2, 0.05))
    assert np.array_equal(g2, obj.grad2_h(x1, x2, 0.05))


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
    obj = make()
    calls = _count_calls(monkeypatch, smoothing, "group_norms")
    monkeypatch.setattr(objectives, "group_norms", smoothing.group_norms)
    rng = np.random.default_rng(3)
    P = obj.point(rng.normal(size=64), rng.normal(size=64))
    for eps in (0.05, 0.05 * 0.9):
        P.h(eps)
        P.grad_h(eps)
    assert len(calls) == 1


def test_reducing_residual_iterations_reuse_features(monkeypatch):
    # after a reduction the point's features and pre-activations are
    # reused: each iteration runs 3 forward passes (two partial gradients,
    # U) and 4 backward passes (gradient at X for the new eps, two partial
    # gradients, gradient at U)
    obj = _cnn_objective()
    layers = len(obj.extractor.weights)
    forward = _count_forward_passes(monkeypatch)
    backward = _count_calls(monkeypatch, extractor, "smoothed_relu_deriv")
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=8))
    assert [(r.branch, r.reduced) for r in state.trace] == [("u", True)] * 8
    assert len(forward) == (1 + 3 * 8) * (layers - 1)
    assert len(backward) == 4 * 8 * (layers - 1)


def test_identity_residual_iterations_run_two_dfts_per_point(monkeypatch):
    # the k-space residuals at X0 and at each accepted U, nothing more
    obj = _identity_objective()
    calls = _count_calls(monkeypatch, MaskedDft, "forward")
    k = 6
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=k))
    assert [r.branch for r in state.trace] == ["u"] * k
    assert len(calls) == 2 * (k + 1)


@pytest.mark.parametrize("make", [_identity_objective, _cnn_objective])
def test_evaluated_point_matches_per_call_methods(make):
    obj = make()
    rng = np.random.default_rng(2)
    x1, x2 = rng.normal(size=64), rng.normal(size=64)
    P = obj.evaluate(TwoBlockPoint(x1, x2))
    assert obj.evaluate(P) is P
    for eps in (0.05, 0.05 * 0.9):
        phi = obj.h1(x1, eps) + obj.h2(x2, eps) + obj.h(x1, x2, eps)
        g1 = obj.grad_h1(x1, eps) + obj.grad1_h(x1, x2, eps)
        g2 = obj.grad_h2(x2, eps) + obj.grad2_h(x1, x2, eps)
        assert phi_eps(obj, P, eps) == phi
        G = grad_phi_eps(obj, P, eps)
        assert np.array_equal(G.x1, g1) and np.array_equal(G.x2, g2)


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
