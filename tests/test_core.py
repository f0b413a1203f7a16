import numpy as np
import pytest

from lpam import extractor
from lpam.core import (
    NumericError,
    TwoBlockPoint,
    finite_difference_grad,
    grad_phi_eps,
    phi_eps,
)
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.solver import LpamConfig, lpam_run


def _cnn_objective(num_layers=4):
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    ext = extractor.random_extractor(8, 8, num_layers=num_layers, channels=8, seed=1)
    return JointRecovery(inst.dft, inst.kspace, ext, 0.0093)


def _count_forward_passes(monkeypatch) -> list:
    """Record one entry per smoothed-ReLU call: L-1 per extractor forward pass."""
    calls = []
    real = extractor.smoothed_relu

    def counting(x, act_delta):
        calls.append(None)
        return real(x, act_delta)

    monkeypatch.setattr(extractor, "smoothed_relu", counting)
    return calls


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


def test_residual_iteration_runs_six_forward_passes(monkeypatch):
    # phi and gradient at X, two partial gradients in the residual
    # update, phi at U for the safeguard (also the accepted value),
    # gradient at the accepted point
    obj = _cnn_objective()
    calls = _count_forward_passes(monkeypatch)
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=1))
    assert state.trace[0].branch == "u"
    assert len(calls) == 6 * 3
