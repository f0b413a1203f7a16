import dataclasses
import math

import numpy as np
import pytest

from lpam import extractor
from lpam.core import NumericError, TwoBlockPoint
from lpam.diagnostics import audit_report, lmax_bound, metrics
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.fileio import IterateRecord
from lpam.solver import LpamConfig, lpam_run

from tests.cases import QUAD_STATIONARITY, recovery_objective


def _ls_config(ls_delta, alpha_bar, beta_bar, rho):
    return LpamConfig(ls_delta=ls_delta, alpha_bar=alpha_bar, beta_bar=beta_bar, rho=rho)


def test_lmax_hand_value():
    assert lmax_bound(_ls_config(0.5, 0.9, 0.9, 0.5), 2.0) == 1
    # initial steps already below 1/(L/2 + delta): no backtracking needed
    assert lmax_bound(_ls_config(0.1, 0.9, 0.9, 0.5), 2.0) == 0


def test_lmax_clamps_at_zero():
    # (L/2 + delta) * max step well below 1: negative before clamping
    assert lmax_bound(_ls_config(0.05, 0.1, 0.1, 0.5), 0.1) == 0


def test_lmax_input_validation():
    cfg = _ls_config(0.5, 0.9, 0.9, 0.5)
    with pytest.raises(ValueError, match="positive"):
        lmax_bound(cfg, 0.0)
    # a trace row with a subnormal eps gives an infinite Lipschitz estimate
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            lmax_bound(cfg, L)


def test_audit_report_rejects_an_invalid_config():
    # a config is checked when it is made, so no audit sees an invalid one:
    # rho = 1 would divide by log(1/rho) = 0 in lmax_bound, and a = 0 by a^3
    # in the segment bound
    trace = [_record(k=0)]
    with pytest.raises(ValueError, match="rho"):
        audit_report(trace, _ls_config(0.5, 0.9, 0.9, 1.0), lambda _e: 4.0)
    with pytest.raises(ValueError, match="rho"):
        lmax_bound(LpamConfig(rho=1.0), 4.0)
    with pytest.raises(ValueError, match="safeguard constant a"):
        audit_report(trace, LpamConfig(a=0.0), lambda _e: 4.0)


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


# a=1, equal initial steps, delta=0.5, rho=0.5, L=1, eta=1,
# phi(X0) - phi* + 1 = 2: (2 + 4/(0.5*0.25)) * 2 = 68
SEGMENT_CONFIG = LpamConfig(
    eps0=1.0,
    gamma=0.5,
    eps_sigma=2.0,
    a=1.0,
    ls_delta=0.5,
    rho=0.5,
    alpha_bar=0.9,
    beta_bar=0.9,
)
SEGMENT_TRACE = [_record(k=0, phi_pre=1.0, reduced=True)]


def test_segment_bound_spot_value():
    reports = audit_report(SEGMENT_TRACE, SEGMENT_CONFIG, lambda _e: 1.0)["segments"]
    assert len(reports) == 1
    assert reports[0]["bound"] == pytest.approx(68.0)
    assert reports[0]["observed"] == 1
    assert reports[0]["ok"]


def test_audit_report_layout():
    # the report.json layout, pinned on the one-row segment case above
    rep = audit_report(SEGMENT_TRACE, SEGMENT_CONFIG, lambda _e: 1.0)
    assert rep == {
        "passed": True,
        "decrease_audit": {"passed": True, "failures": []},
        "segments": [
            {
                "l": 0,
                "k_start": -1,
                "k_end": 0,
                "eps": 1.0,
                "observed": 1,
                "bound": 68.0,
                "ok": True,
            }
        ],
        "lmax": {"passed": True, "violations": []},
    }


def test_segment_bound_empty_without_events():
    trace = [_record(reduced=False)]
    assert audit_report(trace, LpamConfig(), lambda _e: 1.0)["segments"] == []


def test_segment_bound_on_quadratic_run():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    reports = audit_report(
        state.trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate
    )["segments"]
    assert reports
    for rep in reports:
        assert rep["ok"]


def test_segment_eps_and_threshold_are_the_trace_rows():
    # a segment's eps is its first row's, bit for bit, and its threshold is
    # the solver's reduction threshold at that eps; eps0 * gamma**l is not
    # (0.006561 against the trace's 0.006561000000000002 at l = 4)
    obj, _ = recovery_objective()
    cfg = LpamConfig(max_iter=20)
    state, _ = lpam_run(obj, obj.zero_filled(), cfg)
    reports = audit_report(state.trace, cfg, obj.lipschitz_estimate)["segments"]
    assert len(reports) >= 5
    for rep in reports:
        first = state.trace[rep["k_start"] + 1]
        assert rep["eps"].hex() == first.eps.hex()
        # the rates as _rates forms them, with alpha_bar = beta_bar
        L, sb2 = obj.lipschitz_estimate(first.eps), cfg.alpha_bar**2
        safeguard = 2.0 / cfg.a**3
        line_search = 4.0 * sb2 * L**2 / (cfg.ls_delta * sb2 * cfg.rho**2)
        eta = cfg.eps_sigma * cfg.gamma * first.eps
        assert rep["bound"] == (safeguard + line_search) * (first.phi_pre + 1.0) / eta**2


def test_decrease_audit_passes_on_quadratic():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    failures = audit_report(
        state.trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate
    )["decrease_audit"]["failures"]
    assert failures == []


def test_decrease_audit_stationary_trivial():
    trace = [_record(decrease=0.0, grad_norm_pre=0.0, phi_pre=0.5)]
    assert audit_report(trace, LpamConfig(), lambda _e: 4.0)["decrease_audit"]["failures"] == []


def test_decrease_audit_catches_corruption():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    trace = [dataclasses.replace(r) for r in state.trace]
    trace[4].decrease = 0.0  # non-stationary step claiming no progress
    rep = audit_report(trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate)
    failures = rep["decrease_audit"]["failures"]
    assert failures
    assert any(f["k"] == 4 for f in failures)


def test_decrease_audit_catches_increase():
    trace = [_record(decrease=-0.5)]
    failures = audit_report(trace, LpamConfig(), lambda _e: 4.0)["decrease_audit"]["failures"]
    assert failures and "increased" in failures[0]["reason"]


def test_audit_report_all_sections():
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    rep = audit_report(state.trace, QUAD_STATIONARITY, QuadraticToy().lipschitz_estimate)
    assert rep["passed"]
    assert rep["decrease_audit"]["passed"]
    assert rep["lmax"]["passed"]
    assert all(s["ok"] is not False for s in rep["segments"])


def test_audit_computes_layer_bounds_once(monkeypatch):
    # the extractor's weights are fixed, so an audit of a CNN run takes the
    # spectral norms of its kernels once, not once per trace row
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    ext = extractor.random_extractor(8, 8, num_layers=3, channels=4, seed=1)
    obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
    calls = []
    real = extractor._layer_bounds

    def counting(weights):
        calls.append(None)
        return real(weights)

    monkeypatch.setattr(extractor, "_layer_bounds", counting)
    cfg = LpamConfig(max_iter=5)
    state, _ = lpam_run(obj, obj.zero_filled(), cfg)
    rep = audit_report(state.trace, cfg, obj.lipschitz_estimate)
    assert rep["passed"] and len(state.trace) == 5
    assert len(calls) == 1


def test_audit_reads_the_lipschitz_estimate_once_per_eps():
    # one pass over the trace: the rows between two reductions carry one
    # eps, and take its estimate from the first of them; a fallback row's
    # lmax bound reuses its eps's estimate, and a segment's bound the rates
    # of the segment's first row
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode="bcd")
    X0 = TwoBlockPoint(np.ones(3), -np.ones(3))
    state, _ = lpam_run(QuadraticToy(), X0, cfg)
    calls = []

    def counting(eps):
        calls.append(eps)
        return QuadraticToy().lipschitz_estimate(eps)

    rep = audit_report(state.trace, cfg, counting)
    assert rep["passed"] and len(rep["segments"]) >= 3
    assert all(r.branch == "v" for r in state.trace)
    runs = [r.eps for i, r in enumerate(state.trace) if i == 0 or state.trace[i - 1].reduced]
    assert calls == runs and len(calls) < len(state.trace)


def test_audit_takes_a_new_estimate_for_each_change_of_eps():
    # the estimate is taken again whenever eps differs from the previous
    # row's, also back to an earlier value, for -0.0 after 0.0 and for
    # each NaN row; an equal eps in a different float object reuses it
    eps = [1.0, float("1.0"), 0.5, 1.0, 0.0, 0.0, -0.0, math.nan, math.nan]
    calls = []

    def counting(e):
        calls.append(e)
        return 4.0

    trace = [_record(k=k, eps=e) for k, e in enumerate(eps)]
    audit_report(trace, LpamConfig(), counting)
    assert [math.copysign(1, c) for c in calls] == [1, 1, 1, 1, -1, 1, 1]
    assert calls[:5] == [1.0, 0.5, 1.0, 0.0, -0.0]
    assert all(map(math.isnan, calls[5:]))


def test_audit_takes_the_lmax_bound_of_each_rows_eps():
    # an estimate of 4 / eps bounds the backtracks by 1 at eps 1 and by 9 at
    # eps 0.004, so 5 backtracks at eps 0.004 pass and at eps 1 fail
    trace = [
        _record(k=0, eps=1.0, ls_count=1),
        _record(k=1, eps=0.004, ls_count=5),
        _record(k=2, eps=1.0, ls_count=5),
    ]
    rep = audit_report(trace, LpamConfig(), lambda e: 4.0 / e)
    assert rep["lmax"]["violations"] == [{"k": 2, "ls_count": 5, "bound": 1}]


@pytest.mark.parametrize(
    "row, L, what",
    [
        (dict(branch="v"), math.inf, "Lipschitz estimate"),
        (dict(branch="u"), math.nan, "Lipschitz estimate"),
        # 4 sb^2 L^2 / (ls_delta si^2 rho^2) = 160 L^2 overflows to inf
        (dict(branch="u"), 1.2e153, "decrease rate"),
        # L^2 itself overflows, which raises
        (dict(branch="u"), 1e200, "out of floating-point range"),
        # the squared reduction threshold underflows to 0
        (dict(reduced=True, eps=1e-320), 4.0, "out of floating-point range"),
        # a finite rate over a tiny squared threshold overflows to inf
        (dict(reduced=True, eps=1e-150), 1e150, "segment bound"),
        # the reduction threshold eps_sigma * gamma * eps overflows to inf,
        # which would make the segment bound 0
        (dict(reduced=True, eps=1e305), 4.0, "reduction threshold"),
        # a quantity whose forming raises is named too
        (dict(branch="u"), 1e200, "decrease rate at k = 0, eps = 1.0 out of floating-point range"),
        (dict(grad_norm_pre=1e200), 4.0, "squared pre-step gradient norm at k = 0, eps = 1.0 out of"),
        (dict(reduced=True, eps=1e-320), 4.0, "segment bound at k = 0, eps = 1e-320 out of"),
    ],
)
def test_audit_bound_out_of_float_range_is_a_numeric_error(row, L, what):
    # a bound past the float range is one kind of failure, which names the
    # row, whichever section of the audit forms it
    r = _record(k=0, **row)
    with pytest.raises(NumericError, match=what) as info:
        audit_report([r], LpamConfig(), lambda _e: L)
    assert f"k = 0, eps = {r.eps}" in str(info.value)


def test_audit_report_flags_lmax_violation():
    trace = [_record(branch="v", ls_count=50)]
    rep = audit_report(trace, LpamConfig(), lambda _e: 4.0)
    assert not rep["passed"]
    assert rep["lmax"]["violations"]


def test_metrics_identity():
    y = np.array([[1.0, 0.2], [0.3, 0.0]])
    rep = metrics(y, y)
    assert rep.psnr == math.inf and rep.as_dict()["psnr"] is None  # JSON has no inf
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
    # an entry whose square overflows is a numeric failure that is named,
    # not passed on to log10(0)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="squared error"):
        metrics(np.full((2, 2), 1e158), np.ones((2, 2)))
    with pytest.raises(NumericError, match="squared error"):
        metrics(np.full((2, 2), np.nan), np.ones((2, 2)))
    # PSNR takes the log of the peak over the MSE, so the peak must be
    # positive: a truth of -1s, or of 0s and -1s under the squared peak
    with pytest.raises(ValueError, match="positive peak"):
        metrics(np.zeros((2, 2)), -np.ones((2, 2)))
    with pytest.raises(ValueError, match="positive peak"):
        metrics(np.ones((2, 2)), np.array([[0.0, -1.0], [-1.0, 0.0]]), squared_peak=True)
    # a negative peak squares to a positive one
    assert math.isfinite(metrics(np.zeros((2, 2)), -np.ones((2, 2)), squared_peak=True).psnr)
    # a peak over the MSE that underflows or overflows is taken as a
    # difference of logs, not as log10(0) or an infinite PSNR
    rep = metrics(np.full((4, 4), 1e100), np.full((4, 4), 1e-150))
    assert rep.psnr == pytest.approx(10 * (-150 - 200))
    y = np.zeros((4, 4))
    y[0, 0] = 1e10
    x = y.copy()
    x[1, 1] = 1e-150
    rep = metrics(x, y)
    assert rep.rmse == pytest.approx(2.5e-151)
    assert rep.psnr == pytest.approx(10 * (10 - math.log10(1e-300 / 16)))
    # an SSIM constant whose square overflows is a numeric failure
    y[0, 0] = 1e300
    x = y.copy()
    x[1, 1] = 1e-10
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="SSIM"):
        metrics(x, y)
    # and so is one whose denominator underflows to 0
    y, x = np.zeros((2, 2)), np.zeros((2, 2))
    y[0, 0], x[0, 0] = 1e-161, 1e-175
    with np.errstate(under="ignore"), pytest.raises(NumericError, match="SSIM"):
        metrics(x, y)
    # NMSE divides by the truth's squared norm, so a norm that overflows
    # (it read nmse = 0) or underflows to 0 (it read "all zero") is a
    # numeric failure that is named
    y = np.full((4, 4), 5e153)
    x = y.copy()
    x[0, 0] = 4e153
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="squared norm"):
        metrics(x, y)
    y = np.full((4, 4), 1e-170)
    with pytest.raises(NumericError, match="squared norm of the ground truth"):
        metrics(y, y)
    with pytest.raises(NumericError, match="squared norm of the ground truth"):
        metrics(np.zeros((4, 4)), y)


@pytest.mark.parametrize("alpha_bar, beta_bar, L", [(0.9, 0.3, 2.0), (0.2, 0.7, 50.0)])
def test_audit_rates_match_the_formulas(alpha_bar, beta_bar, L):
    # the decrease audit takes the larger of the safeguard and line-search
    # rates, the segment bound their sum, bit for bit
    cfg = LpamConfig(
        eps0=1.0,
        gamma=0.5,
        eps_sigma=2.0,
        a=0.5,
        ls_delta=0.3,
        rho=0.4,
        alpha_bar=alpha_bar,
        beta_bar=beta_bar,
    )
    sb, si = max(alpha_bar, beta_bar), min(alpha_bar, beta_bar)
    safeguard = 2.0 / cfg.a**3
    line_search = 4.0 * sb**2 * L**2 / (cfg.ls_delta * si**2 * cfg.rho**2)
    trace = [_record(k=0, phi_pre=1.0, decrease=1e-9, grad_norm_pre=1e3, reduced=True)]
    rep = audit_report(trace, cfg, lambda _e: L)
    (report,) = rep["segments"]
    assert report["bound"] == (safeguard + line_search) * 2.0 / 1.0**2
    (failure,) = rep["decrease_audit"]["failures"]
    assert failure["reason"].endswith(f"b2 * decrease = {max(safeguard, line_search) * 1e-9}")


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
        cap = lmax_bound(cfg, obj.lipschitz_estimate(r.eps))
        assert r.ls_count <= cap
