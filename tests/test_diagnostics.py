import dataclasses
import math

import numpy as np
import pytest

from lpam.core import TwoBlockPoint
from lpam.diagnostics import (
    audit_report,
    decrease_audit,
    lmax_bound,
    metrics,
    segment_bound,
)
from lpam.objectives import QuadraticToy
from lpam.solver import IterateRecord, LpamConfig, lpam_run

from tests.test_solver import QUAD_STATIONARITY, recovery_objective


def test_lmax_hand_value():
    assert lmax_bound(2.0, 0.5, 1.0, 1.0, 0.5) == 1
    # initial steps already below 1/(L/2 + delta): no backtracking needed
    assert lmax_bound(2.0, 0.1, 0.9, 0.9, 0.5) == 0


def test_lmax_clamps_at_zero():
    # (L/2 + delta) * max step well below 1: negative before clamping
    assert lmax_bound(0.1, 0.05, 0.1, 0.1, 0.5) == 0


def test_lmax_input_validation():
    with pytest.raises(ValueError):
        lmax_bound(0.0, 0.5, 0.9, 0.9, 0.5)
    with pytest.raises(ValueError):
        lmax_bound(2.0, 0.5, 0.9, 0.9, 1.0)


def _record(**kw):
    base = dict(
        k=0,
        eps=1.0,
        phi=0.5,
        grad_norm=0.1,
        branch="v",
        ls_count=0,
        decrease=0.5,
        reduced=False,
        phi_pre=1.0,
        grad_norm_pre=0.2,
    )
    base.update(kw)
    return IterateRecord(**base)


def test_segment_bound_spot_value():
    # a=1, equal initial steps, delta=0.5, rho=0.5, L=1, eta=1,
    # phi(X0) - phi* + 1 = 2: (2 + 4/(0.5*0.25)) * 2 = 68
    cfg = LpamConfig(
        eps0=1.0,
        gamma=0.5,
        eps_sigma=2.0,
        a=1.0,
        ls_delta=0.5,
        rho=0.5,
        alpha_bar=0.9,
        beta_bar=0.9,
    )
    trace = [_record(k=0, phi_pre=1.0, reduced=True)]
    reports = segment_bound(trace, lambda _e: 1.0, cfg)
    assert len(reports) == 1
    assert reports[0].bound == pytest.approx(68.0)
    assert reports[0].observed == 1
    assert reports[0].ok


def test_segment_bound_empty_without_events():
    trace = [_record(reduced=False)]
    assert segment_bound(trace, lambda _e: 1.0, LpamConfig()) == []


def test_segment_bound_on_quadratic_run():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    reports = segment_bound(
        state.trace, QuadraticToy().lipschitz_estimate, QUAD_STATIONARITY
    )
    assert reports
    for rep in reports:
        assert rep.ok


def test_decrease_audit_passes_on_quadratic():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    ok, failures = decrease_audit(
        state.trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate
    )
    assert ok and not failures


def test_decrease_audit_stationary_trivial():
    trace = [_record(decrease=0.0, grad_norm_pre=0.0, phi_pre=0.5)]
    ok, _ = decrease_audit(trace, LpamConfig(), lambda _e: 4.0)
    assert ok


def test_decrease_audit_catches_corruption():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    trace = [dataclasses.replace(r) for r in state.trace]
    trace[4].decrease = 0.0  # non-stationary step claiming no progress
    ok, failures = decrease_audit(trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate)
    assert not ok
    assert any(f.k == 4 for f in failures)


def test_decrease_audit_catches_increase():
    trace = [_record(decrease=-0.5)]
    ok, failures = decrease_audit(trace, LpamConfig(), lambda _e: 4.0)
    assert not ok and "increased" in failures[0].reason


def test_audit_report_all_sections():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    rep = audit_report(state.trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate)
    assert rep["passed"]
    assert rep["decrease_audit"]["passed"]
    assert rep["lmax"]["passed"]
    assert all(s["ok"] is not False for s in rep["segments"])


def test_audit_report_flags_lmax_violation():
    trace = [_record(branch="v", ls_count=50)]
    rep = audit_report(trace, LpamConfig(), lambda _e: 4.0)
    assert not rep["passed"]
    assert rep["lmax"]["violations"]


def test_metrics_identity():
    y = np.array([[1.0, 0.2], [0.3, 0.0]])
    rep = metrics(y, y)
    assert rep.psnr == math.inf
    assert rep.ssim == 1.0
    assert rep.nmse == 0.0 and rep.rmse == 0.0


def test_metrics_zero_reconstruction():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    rep = metrics(np.zeros_like(y), y)
    assert rep.nmse == pytest.approx(1.0)


def test_metrics_hand_case():
    y = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = np.array([[0.5, 0.0], [0.0, 0.0]])
    rep = metrics(x, y)
    assert rep.rmse == pytest.approx(0.25, abs=1e-10)
    assert rep.nmse == pytest.approx(0.25, abs=1e-10)
    assert rep.psnr == pytest.approx(10 * math.log10(1.0 / 0.0625), abs=1e-10)


def test_metrics_squared_peak_variant():
    y = np.array([[2.0, 0.0], [0.0, 0.0]])
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    plain = metrics(x, y).psnr
    squared = metrics(x, y, squared_peak=True).psnr
    assert squared == pytest.approx(plain + 10 * math.log10(2.0))


def test_metrics_errors():
    with pytest.raises(ValueError):
        metrics(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        metrics(np.ones((2, 2)), np.zeros((2, 2)))


def test_ssim_symmetric_and_bounded():
    # the stabilizing constants use the ground truth's dynamic range, so
    # symmetry is tested on pairs sharing that range
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.random((8, 8))
        y = x.ravel()[rng.permutation(64)].reshape(8, 8)
        a = metrics(x, y).ssim
        b = metrics(y, x).ssim
        assert a == pytest.approx(b, rel=1e-9)
        assert a <= 1.0 + 1e-12


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(1)
    x = rng.random((6, 6))
    y = rng.random((6, 6)) + 0.1
    perm = rng.permutation(36)
    xp = x.ravel()[perm].reshape(6, 6)
    yp = y.ravel()[perm].reshape(6, 6)
    a, b = metrics(x, y), metrics(xp, yp)
    assert a.psnr == pytest.approx(b.psnr)
    assert a.nmse == pytest.approx(b.nmse)
    assert a.rmse == pytest.approx(b.rmse)
    assert a.ssim == pytest.approx(b.ssim)


def test_lmax_holds_on_recovery_run():
    obj, _ = recovery_objective()
    cfg = LpamConfig(max_iter=40)
    state, _ = lpam_run(obj, obj.zero_filled(), cfg)
    for r in state.trace:
        if r.branch != "v":
            continue
        cap = lmax_bound(
            obj.lipschitz_estimate(r.eps), cfg.ls_delta, cfg.alpha_bar, cfg.beta_bar, cfg.rho
        )
        assert r.ls_count <= cap
