import dataclasses
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lpam import fileio, solver
from lpam.core import TwoBlockPoint, grad_phi_eps, phi_eps
from lpam.extractor import IdentityExtractor, random_extractor
from lpam.fileio import FormatError, IterateRecord, read_trace_csv, write_trace_csv
from lpam.objectives import JointRecovery, QuadraticPoint, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.solver import (
    EXIT_ITERATION_CAP,
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    EXIT_TOLERANCE,
    LpamConfig,
    lpam_run,
    safeguard_check,
    u_step,
    v_step_with_linesearch,
)

from tests.oracles import half_count_m, reference_lpam_run, write_trace_csv_reference

QUAD_STATIONARITY = LpamConfig(
    eps0=1.0,
    gamma=0.5,
    eps_sigma=1.0,
    eps_tol=1e-5,
    step_alpha=(0.05,),
    step_tau=(0.05,),
    step_beta=(0.05,),
    step_gamma=(0.05,),
    max_iter=2000,
)

# the fallback line search's parameters (the defaults, spelled out)
LINE_SEARCH = LpamConfig(alpha_bar=0.9, beta_bar=0.9, rho=0.5, ls_delta=0.1, ls_max=60)


def recovery_objective(size=8, seed=0, lam=0.0093):
    inst = generate_instance(InstanceSpec(height=size, width=size), seed)
    return JointRecovery(inst.dft, inst.kspace, IdentityExtractor(size, size), lam), inst


def test_u_step_zero_steps_is_identity():
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0, -2.0], [0.5, 0.5])
    U = u_step(obj, X, 0.1, (0.0, 0.0, 0.0, 0.0))
    assert np.allclose(U.x1, X.x1) and np.allclose(U.x2, X.x2)


def test_u_step_hand_example():
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0], [1.0])
    U = u_step(obj, X, 0.1, (0.5, 0.5, 0.5, 0.5))
    assert U.x1[0] == pytest.approx(0.75)
    assert U.x2[0] == pytest.approx(0.625)


def at(obj, X, eps):
    """The values the solver loop holds at X: objective and full gradient."""
    return phi_eps(obj, X, eps), grad_phi_eps(obj, X, eps)


def safeguard(obj, X, U, eps, config):
    phi_x, g = at(obj, X, eps)
    return safeguard_check(obj, X, U, eps, phi_x, g.norm(), config)


def test_safeguard_degenerate_candidate():
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0], [1.0])
    accepted, phi_u = safeguard(obj, X, X, 0.1, LpamConfig(a=1e-3))
    assert not accepted
    assert phi_u == phi_eps(obj, X, 0.1)


def test_safeguard_stationary_point():
    obj = QuadraticToy()
    O = TwoBlockPoint([0.0], [0.0])
    assert safeguard(obj, O, O, 0.1, LpamConfig(a=1e-3)) == (True, 0.0)


def test_safeguard_genuine_descent():
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0], [1.0])
    U = u_step(obj, X, 0.1, (0.5, 0.5, 0.5, 0.5))
    accepted, phi_u = safeguard(obj, X, U, 0.1, LpamConfig(a=1e-3))
    assert accepted
    assert phi_u == phi_eps(obj, U, 0.1)
    with pytest.raises(ValueError, match="safeguard constant a"):
        safeguard(obj, X, U, 0.1, LpamConfig(a=0.0))


def test_v_step_stationary_accepts_immediately():
    obj = QuadraticToy()
    O = TwoBlockPoint([0.0, 0.0], [0.0, 0.0])
    V, l, phi_v = v_step_with_linesearch(obj, O, 0.1, *at(obj, O, 0.1), LINE_SEARCH)
    assert l == 0
    assert np.allclose(V.x1, 0.0) and np.allclose(V.x2, 0.0)
    assert phi_v == 0.0


def test_v_step_small_steps_first_try():
    # steps already below 1/(L/2 + delta): acceptance at l = 0
    obj = QuadraticToy()
    X = TwoBlockPoint([1.0], [2.0])
    small = dataclasses.replace(LINE_SEARCH, alpha_bar=0.3, beta_bar=0.3)
    _, l, _ = v_step_with_linesearch(obj, X, 0.1, *at(obj, X, 0.1), small)
    assert l == 0


def test_v_step_decreases_objective():
    obj, _ = recovery_objective()
    X0 = obj.zero_filled()
    phi0, g0 = at(obj, X0, 0.01)
    V, l, phi_v = v_step_with_linesearch(obj, X0, 0.01, phi0, g0, LINE_SEARCH)
    assert phi_v < phi0
    assert 0 <= l <= 60


class AscentPoint(QuadraticPoint):
    def grad_h1(self, eps):
        return -self.x1

    def grad_h2(self, eps):
        return -self.x2

    def grad_h(self, eps):
        return self.x2 - self.x1, self.x1 - self.x2


class AscentObjective(QuadraticToy):
    """Wrong-sign gradients: every candidate increases the objective."""

    def point(self, x1, x2):
        return AscentPoint(x1, x2, self)

    def grad1_h(self, x1, x2, eps):
        return x2 - x1

    def grad2_h(self, x1, x2, eps):
        return x1 - x2


def test_line_search_failure_exit():
    # small ls_max so shrinking steps cannot underflow into V == X
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode="bcd", max_iter=5, ls_max=20)
    X0 = TwoBlockPoint([1.0], [2.0])
    state, reason = lpam_run(AscentObjective(), X0, cfg)
    assert reason == EXIT_LINE_SEARCH
    assert state.k == 0


class NanGradPoint(QuadraticPoint):
    def grad_h(self, eps):
        g1, g2 = super().grad_h(eps)
        return np.full_like(g1, np.nan), g2


class NanGradObjective(QuadraticToy):
    """A NaN partial gradient of the joint term at every point."""

    def point(self, x1, x2):
        return NanGradPoint(x1, x2, self)


def test_numeric_error_exit():
    state, reason = lpam_run(NanGradObjective(), TwoBlockPoint([1.0], [1.0]), QUAD_STATIONARITY)
    assert reason == EXIT_NUMERIC


def test_eps_underflow_is_a_numeric_error():
    # every iteration reduces eps a thousandfold until gamma * eps underflows
    # to 0, where no smoothed objective is defined: the run ends there and
    # keeps its rows, each at a positive eps
    cfg = LpamConfig(eps0=1.0, gamma=0.001, eps_sigma=1e300, max_iter=400)
    state, reason = lpam_run(QuadraticToy(), TwoBlockPoint(np.ones(16), np.ones(16)), cfg)
    assert reason == EXIT_NUMERIC
    assert 0 < state.k < cfg.max_iter
    assert [r.k for r in state.trace] == list(range(state.k))
    assert all(r.eps > 0 for r in state.trace)
    assert state.trace[-1].reduced and cfg.gamma * state.trace[-1].eps == 0.0


class BadGradNearOriginPoint(QuadraticPoint):
    def grad_h1(self, eps):
        return np.where(np.abs(self.x1) < 0.99, self.obj.fill, self.x1)


class BadGradNearOriginObjective(QuadraticToy):
    """Finite gradient at the start; wherever x1 has moved toward 0, each
    of its entries there holds ``fill``, NaN or one whose square overflows."""

    def __init__(self, fill):
        self.fill = fill

    def point(self, x1, x2):
        return BadGradNearOriginPoint(x1, x2, self)


@pytest.mark.parametrize("mode", ["lpam", "bcd"])
def test_nonfinite_gradient_at_accepted_point_ends_the_run(mode):
    # a NaN entry, or finite entries whose norm overflows
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode=mode)
    for fill in (np.nan, 1e300):
        obj = BadGradNearOriginObjective(fill)
        state, reason = lpam_run(obj, TwoBlockPoint([1.0], [1.0]), cfg)
        assert reason == EXIT_NUMERIC
        assert state.k == 0


# three finite terms whose sum overflows, and finite gradient entries whose
# norm overflows
R = 1.3038e154
OVERFLOWING_STARTS = {
    "sum": TwoBlockPoint([R, 0.0], [R / 2, 0.8660254 * R]),
    "gradient norm": TwoBlockPoint([5.5e153], [-5.5e153]),
}


@pytest.mark.parametrize("mode", ["lpam", "bcd"])
@pytest.mark.parametrize("start", OVERFLOWING_STARTS)
def test_overflow_at_the_start_point_is_a_numeric_error(start, mode):
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode=mode)
    state, reason = lpam_run(QuadraticToy(), OVERFLOWING_STARTS[start], cfg)
    assert reason == EXIT_NUMERIC
    assert state.k == 0


@given(st.floats(1e153, 2e154), st.floats(0.0, 2 * math.pi), st.sampled_from(["lpam", "bcd"]))
@example(R, math.pi / 3, "lpam")
@example(5.5e153, math.pi, "bcd")
@example(5e153, 0.0, "lpam")  # 20 finite rows whose floats overflow their sum
def test_every_row_a_run_keeps_reads_back(r, angle, mode):
    # start points on the edge of the float range, where the objective, its
    # gradient norm or a step can overflow
    X0 = TwoBlockPoint([r, 0.0], [r * math.cos(angle), r * math.sin(angle)])
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode=mode, max_iter=20)
    trace = lpam_run(QuadraticToy(), X0, cfg)[0].trace
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace


@pytest.mark.parametrize("tau", [1e200, 1e308])
def test_overflowing_candidate_is_rejected_by_the_safeguard(tau):
    # at 1e200 the candidate is finite and its objective overflows; at 1e308
    # the candidate itself overflows.  Either way the safeguard rejects it
    # and the fallback step runs, as it does in bcd mode, without a warning
    X0 = TwoBlockPoint(np.full(16, 4.0), np.ones(16))
    cfg = LpamConfig(step_tau=(tau,), max_iter=50)
    state, reason = lpam_run(QuadraticToy(), X0, cfg)
    assert reason == EXIT_ITERATION_CAP
    assert [r.branch for r in state.trace] == ["v"] * 50
    bcd, _ = lpam_run(QuadraticToy(), X0, dataclasses.replace(cfg, mode="bcd"))
    assert [r.phi for r in state.trace] == [r.phi for r in bcd.trace]


class BarrierPoint(QuadraticPoint):
    def h1(self, eps):
        return math.inf if (self.x1 < 0).any() else super().h1(eps)


class BarrierObjective(QuadraticToy):
    """The quadratic toy with h1 infinite wherever an entry of x1 is negative."""

    def point(self, x1, x2):
        return BarrierPoint(x1, x2, self)


def test_line_search_backtracks_from_a_nonfinite_trial():
    # the first trial, x1 = 1 - 0.9 * 2, lies behind the barrier; the
    # second, with half the steps, does not and decreases enough
    obj = BarrierObjective()
    X = TwoBlockPoint([1.0], [0.0])
    V, l, phi_v = v_step_with_linesearch(obj, X, 0.1, *at(obj, X, 0.1), LINE_SEARCH)
    assert l == 1
    assert V.x1[0] == pytest.approx(0.1)
    assert phi_v == phi_eps(obj, V, 0.1)


class ReadOnlyQuadraticPoint(QuadraticPoint):
    """A quadratic point whose joint-gradient blocks, the kept difference
    among them, cannot be written."""

    def grad_h(self, eps):
        blocks = super().grad_h(eps)
        for g in blocks:
            g.setflags(write=False)
        return blocks


class ReadOnlyQuadratic(QuadraticToy):
    """The quadratic toy of which no array a point returns can be written,
    its blocks among them, so a run that wrote one would raise."""

    def point(self, x1, x2):
        P = ReadOnlyQuadraticPoint(x1, x2, self)
        P.x1.setflags(write=False)
        P.x2.setflags(write=False)
        return P


@pytest.mark.parametrize("mode", ["lpam", "bcd"])
def test_run_writes_no_array_an_objective_returns(mode):
    # a quadratic point returns its own blocks as the separable gradients
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode=mode)
    want, want_reason = lpam_run(QuadraticToy(), X0, cfg)
    got, reason = lpam_run(ReadOnlyQuadratic(), X0, cfg)
    assert reason == want_reason == EXIT_TOLERANCE
    assert got.trace == want.trace
    assert {r.branch for r in got.trace} == {"u" if mode == "lpam" else "v"}


def test_quadratic_converges_to_origin():
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, reason = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    assert reason == EXIT_TOLERANCE
    assert state.X.norm() < 1e-5
    assert sum(r.reduced for r in state.trace) >= 3


def test_bcd_converges_to_origin():
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, reason = lpam_run(QuadraticToy(), X0, dataclasses.replace(QUAD_STATIONARITY, mode="bcd"))
    assert reason == EXIT_TOLERANCE
    assert state.X.norm() < 1e-5
    assert all(r.branch == "v" for r in state.trace)


def test_gradient_evaluated_once_per_point(monkeypatch):
    # the accepted point's values carry over to the next iteration, so the
    # gradient is evaluated again at the same point only after a reduction
    calls = []

    def counting(obj, X, eps):
        calls.append(None)
        return grad_phi_eps(obj, X, eps)

    monkeypatch.setattr(solver, "grad_phi_eps", counting)
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, reason = lpam_run(QuadraticToy(), X0, QUAD_STATIONARITY)
    assert reason == EXIT_TOLERANCE
    reductions = sum(r.reduced for r in state.trace[:-1])
    assert 0 < reductions < state.k
    assert len(calls) == state.k + 1 + reductions


def test_max_iter_zero_returns_start():
    X0 = TwoBlockPoint([1.0], [2.0])
    cfg = dataclasses.replace(QUAD_STATIONARITY, max_iter=0)
    state, reason = lpam_run(QuadraticToy(), X0, cfg)
    assert reason == EXIT_ITERATION_CAP
    assert state.k == 0 and len(state.trace) == 0
    assert np.allclose(state.X.x1, X0.x1)


def test_invalid_config_rejected():
    for bad in (
        {"eps0": 0.0},
        {"gamma": 1.0},
        {"rho": 0.0},
        {"alpha_bar": 1.5},
        {"ls_delta": 1.0},
        {"max_iter": -1},
        {"mode": "sgd"},
        {"mode": "bcd_only"},
        {"max_iter": 1.5},
        {"max_iter": True},
        {"ls_max": 2.0},
        {"step_alpha": ()},
        {"a": -1.0},
        {"eps_sigma": 0.0},
        {"eps_tol": -1.0},
        {"ls_max": 0},
        # a schedule entry or a float field that is not a finite number is
        # refused when the config is made, not when a run reads it
        {"step_tau": ("a",)},
        {"step_tau": "abc"},
        {"step_tau": 0.5},
        {"step_alpha": (math.nan,)},
        {"step_beta": (0.5, math.inf)},
        {"step_gamma": (-math.inf,)},
        {"step_tau": (True,)},
        {"step_tau": (None,)},
        {"step_tau": (1j,)},
        {"step_tau": (10**400,)},
        {"eps0": "a"},
        {"eps0": 10**400},
        {"gamma": True},
    ):
        with pytest.raises(ValueError):
            LpamConfig(**bad)
    with pytest.raises(ValueError):
        lpam_run(QuadraticToy(), TwoBlockPoint([np.inf], [0.0]), QUAD_STATIONARITY)


@pytest.mark.parametrize("field", ["eps0", "eps_sigma", "a", "eps_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_config_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        LpamConfig(**{field: value})


def test_config_keeps_its_schedules():
    # a schedule is copied into a tuple when the config is made, so the
    # caller's list can change afterwards without reaching the config
    alpha = [0.5]
    cfg = LpamConfig(step_alpha=alpha, max_iter=3)
    alpha.clear()
    assert cfg.step_alpha == (0.5,) and isinstance(cfg.step_tau, tuple)
    assert hash(cfg) == hash(LpamConfig(step_alpha=(0.5,), max_iter=3))
    state, reason = lpam_run(QuadraticToy(), TwoBlockPoint([1.0], [1.0]), cfg)
    assert reason == EXIT_ITERATION_CAP and state.k == 3


def test_traces_differ_when_u_branch_fires():
    obj, _ = recovery_objective()
    X0 = obj.zero_filled()
    cfg = LpamConfig(max_iter=20)
    sa, _ = lpam_run(obj, X0, cfg)
    sb, _ = lpam_run(obj, X0, dataclasses.replace(cfg, mode="bcd"))
    assert any(r.branch == "u" for r in sa.trace)
    assert [r.phi for r in sa.trace] != [r.phi for r in sb.trace]


def test_monotone_decrease_within_segments():
    obj, _ = recovery_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=40))
    for r in state.trace:
        assert r.decrease >= 0.0
        assert r.phi < r.phi_pre or r.decrease == 0.0


def test_cross_segment_lyapunov():
    obj, _ = recovery_objective()
    m = half_count_m(obj.extractor.num_groups, obj.lam)
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=40))
    vals = [r.phi + m(r.eps) for r in state.trace]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-10


def test_event_gradients_below_threshold():
    obj, _ = recovery_objective()
    cfg = LpamConfig(max_iter=40)
    state, _ = lpam_run(obj, obj.zero_filled(), cfg)
    events = [r for r in state.trace if r.reduced]
    assert events
    for r in events:
        assert r.grad_norm < cfg.eps_sigma * cfg.gamma * r.eps


def test_eps_reduction_is_strict():
    # gradient norm exactly at the threshold must not trigger a reduction
    cfg = LpamConfig(max_iter=40)
    assert not (1.0 < 1.0)  # the comparison used by the loop is strict
    obj, _ = recovery_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), cfg)
    eps_seen = [r.eps for r in state.trace]
    assert all(b <= a for a, b in zip(eps_seen, eps_seen[1:]))


def test_determinism_bitwise():
    obj, _ = recovery_objective()
    X0 = obj.zero_filled()
    cfg = LpamConfig(max_iter=15)
    sa, ra = lpam_run(obj, X0, cfg)
    sb, rb = lpam_run(obj, X0, cfg)
    assert ra == rb
    assert [dataclasses.astuple(r) for r in sa.trace] == [
        dataclasses.astuple(r) for r in sb.trace
    ]
    assert np.array_equal(sa.X.x1, sb.X.x1)


@pytest.mark.parametrize("eps_sigma", [6e4, 50.0])
def test_one_iteration_calls_replay_a_run(eps_sigma):
    # nothing carries over between lpam_run calls: restarting each call
    # from the previous iterate and eps, with the step schedules shifted
    # by the iteration index, replays the full run
    obj, _ = recovery_objective(size=16)
    cfg = LpamConfig(max_iter=20, eps_sigma=eps_sigma)
    full, _ = lpam_run(obj, obj.zero_filled(), cfg)
    names = ("step_alpha", "step_tau", "step_beta", "step_gamma")
    X, eps, replay = obj.zero_filled(), cfg.eps0, []
    for k in range(cfg.max_iter):
        shifted = {n: tuple(getattr(cfg, n)[min(k, len(getattr(cfg, n)) - 1) :]) for n in names}
        one = dataclasses.replace(cfg, eps0=eps, max_iter=1, **shifted)
        state, _ = lpam_run(obj, X, one)
        replay.append(dataclasses.replace(state.trace[0], k=k))
        X, eps = state.X, state.eps
    assert {r.branch for r in full.trace} == {"u", "v"}
    assert replay == full.trace
    assert np.array_equal(X.x1, full.X.x1) and np.array_equal(X.x2, full.X.x2)


def test_trace_csv_roundtrip(tmp_path):
    obj, _ = recovery_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=10))
    path = tmp_path / "trace.csv"
    write_trace_csv(state.trace, path)
    back = read_trace_csv(path)
    assert [dataclasses.astuple(r) for r in back] == [
        dataclasses.astuple(r) for r in state.trace
    ]


def _written(write, trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write(trace, path)
        return path.read_bytes()


# every kind of float a record can hold, the edges named once more
numbers = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1.7976931348623157e308]
    + [math.inf, -math.inf, math.nan]
)
counts = st.integers(-(2**80), 2**80)
records = st.builds(
    IterateRecord,
    k=counts,
    eps=numbers,
    phi=numbers,
    grad_norm=numbers,
    branch=st.sampled_from("uv"),
    ls_count=counts,
    decrease=numbers,
    reduced=st.booleans(),
    phi_pre=numbers,
    grad_norm_pre=numbers,
)


@st.composite
def carried_traces(draw):
    """Records of which some carry the previous row's eps, phi and
    grad_norm objects over as their eps, phi_pre and grad_norm_pre, as the
    solver does on every row after an unreduced one."""
    trace = draw(st.lists(records, max_size=4))
    for i in range(1, len(trace)):
        if draw(st.booleans()):
            prev = trace[i - 1]
            trace[i] = dataclasses.replace(
                trace[i], eps=prev.eps, phi_pre=prev.phi, grad_norm_pre=prev.grad_norm
            )
    return trace


def _rows_sharing_floats() -> list[IterateRecord]:
    """Rows that share float objects as the solver carries them, and rows
    whose floats equal the previous row's in distinct objects; float() makes
    a new object each call, where equal literals in one function are one."""
    eps, nan = float("0.5"), float("nan")
    r0 = IterateRecord(0, eps, float("-0.0"), nan, "u", 0, 0.5, False, 1.0, 2.0)
    # carried over: a -0.0 and a NaN among the shared objects
    r1 = IterateRecord(1, eps, float("0.125"), float("0.25"), "v", 2, -0.0, False, r0.phi, nan)
    # equal values in new objects, with the eps object carried
    r2 = IterateRecord(
        2, r1.eps, float("-0.0"), float("1e-300"), "u", 0, 0.1, True, float("0.125"), float("0.25")
    )
    # 0.0 after -0.0, as phi_pre with eps and grad_norm_pre carried, then as eps
    r3 = IterateRecord(3, r2.eps, float("3.5"), float("nan"), "u", 0, 0.1, False, 0.0, r2.grad_norm)
    r4 = IterateRecord(4, float("-0.0"), 1.0, 1.0, "v", 1, 0.0, False, r3.phi, r3.grad_norm)
    r5 = IterateRecord(5, float("0.0"), 2.0, 2.0, "v", 1, 0.0, False, r4.phi, r4.grad_norm)
    return [r0, r1, r2, r3, r4, r5]


@given(carried_traces())
@example([])
@example(
    [
        IterateRecord(0, 0.0, -0.0, 5e-324, "u", 0, 1e308, True, math.inf, math.nan),
        IterateRecord(2**70, -5e-324, -math.inf, -1e308, "v", -(2**70), -0.0, False, 0.1, 1 / 3),
    ]
)
@example(_rows_sharing_floats())
def test_trace_writer_matches_the_csv_writer(trace):
    assert _written(write_trace_csv, trace) == _written(write_trace_csv_reference, trace)


# the quadratic-cli benchmark workload's solver settings: a run to eps_tol
# with 34 reductions, 879 of its 914 rows carrying eps, phi and grad_norm over
QUAD_CLI = dataclasses.replace(
    QUAD_STATIONARITY,
    eps_tol=1e-10,
    step_alpha=(0.03,),
    step_tau=(0.03,),
    step_beta=(0.03,),
    step_gamma=(0.03,),
)


@functools.cache
def solver_trace(kind: str) -> tuple[IterateRecord, ...]:
    """The trace of one solver run: the quadratic toy from a fixed start,
    to tolerance, or ten iterations of an 8x8 identity or CNN recovery."""
    if kind == "quadratic":
        obj, X0, cfg = QuadraticToy(), TwoBlockPoint(np.ones(4), -np.ones(4)), QUAD_STATIONARITY
    elif kind == "quadratic-cli":  # lpam solve's start point at 32x32
        obj, X0, cfg = QuadraticToy(), TwoBlockPoint(np.ones(1024), np.ones(1024)), QUAD_CLI
    else:
        inst = generate_instance(InstanceSpec(height=8, width=8), 0)
        ext = IdentityExtractor(8, 8) if kind == "identity" else random_extractor(8, 8, seed=1)
        obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
        X0, cfg = obj.zero_filled(), LpamConfig(max_iter=10)
    return tuple(lpam_run(obj, X0, cfg)[0].trace)


def _bits(trace) -> list[tuple]:
    """Each record's fields, a float as its hex spelling, so -0.0 is not 0.0."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in trace
    ]


def _reference_case(kind: str, mode: str = "lpam", sigma: float = 6e4):
    """(objective, start, config) of a fixed reference-machine case: the
    quadratic-cli solve, or 40 iterations of a 16x16 identity or 8x8 CNN
    recovery."""
    if kind == "quadratic-cli":
        return QuadraticToy(), TwoBlockPoint(np.ones(1024), np.ones(1024)), QUAD_CLI
    size = 16 if kind == "identity" else 8
    inst = generate_instance(InstanceSpec(height=size, width=size), 0)
    ext = IdentityExtractor(size, size) if kind == "identity" else random_extractor(size, size, seed=1)
    obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
    return obj, obj.zero_filled(), LpamConfig(max_iter=40, mode=mode, eps_sigma=sigma)


@pytest.mark.parametrize(
    "kind, mode, sigma",
    [("quadratic-cli", "lpam", None)]
    + [
        (kind, mode, sigma)
        for kind in ("identity", "cnn")
        for mode in ("lpam", "bcd")
        for sigma in (6e4, 50.0)
    ],
)
def test_run_matches_the_reference_state_machine(kind, mode, sigma):
    # the run's carried-over values, kept point terms, k_steady steps and
    # in-place step arithmetic give the bits of every value taken afresh
    obj, X0, cfg = _reference_case(kind, mode, sigma)
    state, reason = lpam_run(obj, X0, cfg)
    trace, want_reason, X = reference_lpam_run(obj, X0, cfg)
    assert reason == want_reason
    assert _bits(state.trace) == _bits(trace)
    assert state.X.x1.tobytes() == X.x1.tobytes() and state.X.x2.tobytes() == X.x2.tobytes()
    assert len(trace) == (914 if kind == "quadratic-cli" else 40)


@functools.cache
def _drawn_case(kind: str):
    """(objective, start) of a drawn reference-machine case: the quadratic
    toy from an uneven start, the 8x8 identity recovery from zero fill, or
    the 16x16 identity or 8x8 CNN recovery of the fixed cases."""
    if kind == "quadratic":
        return QuadraticToy(), TwoBlockPoint(np.linspace(-1.0, 2.0, 8), np.cos(np.arange(8.0)))
    if kind in ("identity-16", "cnn-8"):
        return _reference_case(kind.split("-")[0])[:2]
    obj, _ = recovery_objective()
    return obj, obj.zero_filled()


def _log_uniform(lo: float, hi: float):
    """Floats from 10**lo to 10**hi, each decade as likely as the next."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def reference_configs(draw):
    """Configs whose schedules of 1-4 entries switch phase while k <
    k_steady, with every constant the safeguard, the line search and the
    reduction rule read.  Steps from 0.01 to 2.5 and safeguard constants
    from 1e-6 to 1 make the safeguard both accept and reject candidates,
    so the line search runs too."""
    schedule = st.lists(_log_uniform(-2.0, 0.4), min_size=1, max_size=4)
    return LpamConfig(
        step_alpha=draw(schedule),
        step_tau=draw(schedule),
        step_beta=draw(schedule),
        step_gamma=draw(schedule),
        a=draw(_log_uniform(-6.0, 0.0)),
        ls_delta=draw(st.floats(0.01, 0.99)),
        rho=draw(st.floats(0.05, 0.95)),
        gamma=draw(st.floats(0.05, 0.95)),
        eps_sigma=draw(_log_uniform(0.0, 5.0)),
        mode=draw(st.sampled_from(["lpam", "bcd"])),
        max_iter=draw(st.integers(1, 12)),
    )


# phases that switch while both branches run, the fallback backtracks and
# some iterations reduce eps and others do not: on the quadratic toy, then
# on the identity and CNN recoveries
@pytest.mark.parametrize("kind", ["quadratic", "identity", "identity-16", "cnn-8"])
@given(cfg=reference_configs())
@example(
    cfg=LpamConfig(
        step_alpha=(2.0, 0.5, 0.1),
        step_tau=(2.5, 0.3),
        step_beta=(1.0, 2.5, 0.2, 0.1),
        step_gamma=(0.2,),
        a=1e-4,
        ls_delta=0.9,
        rho=0.3,
        eps_sigma=300.0,
        max_iter=12,
    )
)
@example(
    cfg=LpamConfig(
        step_alpha=(2.5, 2.5, 0.5),
        step_tau=(2.5, 0.5),
        step_beta=(2.5, 1.0, 0.5),
        step_gamma=(0.5,),
        a=0.5,
        ls_delta=0.9,
        rho=0.3,
        eps_sigma=10.0,
        max_iter=12,
    )
)
def test_drawn_runs_match_the_reference_state_machine(kind, cfg):
    # the run's 0-d array step sizes in the residual step give the bits of
    # the reference's Python-float products
    obj, X0 = _drawn_case(kind)
    state, reason = lpam_run(obj, X0, cfg)
    trace, want_reason, X = reference_lpam_run(obj, X0, cfg)
    assert reason == want_reason
    assert _bits(state.trace) == _bits(trace)
    assert state.X.x1.tobytes() == X.x1.tobytes() and state.X.x2.tobytes() == X.x2.tobytes()


def test_the_quadratic_cli_run_reduces_and_carries_over():
    trace = solver_trace("quadratic-cli")
    assert len(trace) == 914 and sum(r.reduced for r in trace) == 34
    carried = [
        r.eps is p.eps and r.phi_pre is p.phi and r.grad_norm_pre is p.grad_norm
        for p, r in zip(trace, trace[1:])
    ]
    assert sum(carried) == 879


@pytest.mark.parametrize("kind", ["quadratic", "quadratic-cli", "identity", "cnn"])
def test_solver_traces_are_written_as_the_csv_writer_writes_them(kind):
    trace = solver_trace(kind)
    assert _written(write_trace_csv, trace) == _written(write_trace_csv_reference, trace)


@pytest.mark.parametrize(
    "column, cell",
    [
        ("ls_count", "0_3"),
        ("phi", "0.9_0"),
        ("k", "+1"),
        ("eps", " 0.5"),
        ("decrease", "1E-3"),
        ("grad_norm", "\uff11"),  # a fullwidth digit one
    ],
)
def test_trace_reader_refuses_a_number_no_trace_spells(tmp_path, column, cell):
    # int() and float() read each of these cells; the trace writer, and
    # Python's float repr, spell none of them
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, _ = lpam_run(QuadraticToy(), X0, LpamConfig(max_iter=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(state.trace, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    parts = lines[2].split(",")
    parts[header.index(column)] = cell
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"row 3 in .*: {column} "):
        read_trace_csv(path)


def test_trace_csv_malformed_row_named(tmp_path):
    obj, _ = recovery_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(state.trace, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[2], "not-a-number", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="row 3"):
        read_trace_csv(path)


@pytest.mark.parametrize("edit", [lambda row: row + ",0", lambda row: row.rsplit(",", 1)[0]])
def test_trace_csv_field_count_must_match_header(tmp_path, edit):
    obj, _ = recovery_objective()
    state, _ = lpam_run(obj, obj.zero_filled(), LpamConfig(max_iter=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(state.trace, path)
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="row 3"):
        read_trace_csv(path)


def test_trace_csv_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError, match="header"):
        read_trace_csv(path)


def _trace_text(kind: str) -> str:
    """The text write_trace_csv writes for a solver trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(solver_trace(kind), path)
        with open(path, newline="") as fh:
            return fh.read()


def _edit_line(text: str, line: int, edit) -> str:
    """``text`` with one line, counted from 0 at the header, edited."""
    lines = text.split("\r\n")
    lines[line] = edit(lines[line])
    return "\r\n".join(lines)


def _edit_cell(text: str, line: int, column: str, cell: str) -> str:
    """``text`` with one cell of one line replaced."""

    def edit(row: str) -> str:
        parts = row.split(",")
        parts[fileio._HEADER.index(column)] = cell
        return ",".join(parts)

    return _edit_line(text, line, edit)


def _read(path: Path, text: str):
    """What read_trace_csv makes of ``text``: the records, or the
    FormatError message."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
    try:
        return read_trace_csv(path)
    except FormatError as exc:
        return str(exc)


TRACE_KINDS = ["quadratic-cli", "identity", "cnn"]

# edits of a written trace that the reader accepts
ACCEPTED_EDITS = {
    "as written": lambda t: t,
    "lf line ends": lambda t: t.replace("\r\n", "\n"),
    "mixed line ends": lambda t: t.replace("\r\n", "\n", 3),
    "no final line end": lambda t: t.removesuffix("\r\n"),
}

# edits that the reader refuses, with the row its message names and the
# text that follows the file name there: the bad cell's column, or the
# fault of a line that does not hold ten cells.  Line 4 is row 5.
REFUSED_EDITS = {
    "blank line": (lambda t: _edit_line(t, 4, lambda r: r + "\r\n"), 6, "expected 10 cells"),
    "extra cell": (lambda t: _edit_line(t, 4, lambda r: r + ",0"), 5, "expected 10 cells"),
    "missing cell": (
        lambda t: _edit_line(t, 4, lambda r: r.rsplit(",", 1)[0]),
        5,
        "expected 10 cells",
    ),
    "bad header": (
        lambda t: _edit_line(t, 0, lambda r: r.replace("_pre", "_post")),
        1,
        "the header",
    ),
    # a lone \r ends no line, so the whole text is the header line
    "lone cr line ends": (lambda t: t.replace("\r\n", "\r"), 1, "the header"),
    "quoted cells": (
        lambda t: _edit_line(t, 4, lambda r: ",".join(f'"{c}"' for c in r.split(","))),
        5,
        "k ",
    ),
    "k +1": (lambda t: _edit_cell(t, 4, "k", "+1"), 5, "k "),
    "ls_count 0_3": (lambda t: _edit_cell(t, 4, "ls_count", "0_3"), 5, "ls_count "),
    "eps with a space": (lambda t: _edit_cell(t, 4, "eps", " 1"), 5, "eps "),
    "phi 1E5": (lambda t: _edit_cell(t, 4, "phi", "1E5"), 5, "phi "),
    "grad_norm inf": (lambda t: _edit_cell(t, 4, "grad_norm", "inf"), 5, "grad_norm "),
    "decrease nan": (lambda t: _edit_cell(t, 4, "decrease", "nan"), 5, "decrease "),
    "phi_pre 1e999": (lambda t: _edit_cell(t, 4, "phi_pre", "1e999"), 5, "phi_pre "),
    # spelled in a number's characters, but no number
    "decrease 1-2": (lambda t: _edit_cell(t, 4, "decrease", "1-2"), 5, "decrease "),
    "phi 1e": (lambda t: _edit_cell(t, 4, "phi", "1e"), 5, "phi "),
    "branch w": (lambda t: _edit_cell(t, 4, "branch", "w"), 5, "branch "),
    "flag 2": (lambda t: _edit_cell(t, 4, "reduced", "2"), 5, "reduced "),
    "gap in k": (lambda t: _edit_cell(t, 4, "k", "4"), 5, "k "),
    "eps 0": (lambda t: _edit_cell(t, 4, "eps", "0"), 5, "eps "),
    "eps negative": (lambda t: _edit_cell(t, 4, "eps", "-0.5"), 5, "eps "),
    "ls_count negative": (lambda t: _edit_cell(t, 4, "ls_count", "-1"), 5, "ls_count "),
    "grad_norm negative": (lambda t: _edit_cell(t, 4, "grad_norm", "-0.5"), 5, "grad_norm "),
    "grad_norm_pre negative": (
        lambda t: _edit_cell(t, 4, "grad_norm_pre", "-1e-300"),
        5,
        "grad_norm_pre ",
    ),
}


def test_the_written_traces_take_the_pattern_path(tmp_path, monkeypatch):
    # every row of a written trace matches the writer's spelling, so its
    # records come from the column-by-column conversion, never row by row
    def row_by_row(line, k):
        raise AssertionError(f"row {k + 2} was read on its own")

    monkeypatch.setattr(fileio, "_row", row_by_row)
    for kind in TRACE_KINDS:
        assert _read(tmp_path / "trace.csv", _trace_text(kind)) == list(solver_trace(kind))
    # finite floats whose sum overflows, and a trace of no rows
    X0 = TwoBlockPoint([5e153, 0.0], [5e153, 0.0])
    overflowing = lpam_run(QuadraticToy(), X0, dataclasses.replace(QUAD_STATIONARITY, max_iter=20))
    floats = [v for r in overflowing[0].trace for v in dataclasses.astuple(r) if type(v) is float]
    assert all(map(math.isfinite, floats)) and math.isinf(sum(floats))
    for trace in (overflowing[0].trace, []):
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv") == trace


@pytest.mark.parametrize("edit", ACCEPTED_EDITS)
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_reader_accepts_what_the_csv_path_accepts(tmp_path, kind, edit):
    text = ACCEPTED_EDITS[edit](_trace_text(kind))
    assert _read(tmp_path / "trace.csv", text) == list(solver_trace(kind))


@pytest.mark.parametrize("edit", REFUSED_EDITS)
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_reader_refuses_as_the_csv_path_refuses(tmp_path, kind, edit):
    write, row, fault = REFUSED_EDITS[edit]
    path = tmp_path / "trace.csv"
    message = _read(path, write(_trace_text(kind)))
    assert isinstance(message, str)
    assert message.startswith(f"malformed trace row {row} in {path}: {fault}")


# cells that int(), float() or a csv module's reader read in some way, and
# text that changes a line's structure
edited_cells = st.sampled_from(
    ["0", "-0", "1", "-1", "0.5", "-0.5", "1e-320", "1e308", "1e999", "+1", "1E5", "0_3", " 1"]
    + ["inf", "nan", "-inf", "u", "v", "w", "2", "1-2", "1e", ".5", "5.", '"1"', "１"]
) | st.text(alphabet='0123456789.-+eE_ ,"\r\nuvinfa', max_size=6)

# a cell's value as the record holds it, by field type
CELL_VALUE = {"int": int, "float": float, "str": str, "bool": "1".__eq__}


@given(line=st.integers(0, 10), column=st.sampled_from(fileio._HEADER), cell=edited_cells)
@example(line=0, column="k", cell="j")
@example(line=1, column="k", cell='"0"')
@example(line=1, column="k", cell="-0")
@example(line=3, column="grad_norm_pre", cell="1\n")
def test_trace_reader_agrees_with_the_csv_path_on_any_one_cell(line, column, cell):
    # the reader returns the records with the one field set to the cell's
    # value, or names the edited line's row and, for a cell that leaves the
    # line's cells as they are, its column; a \n in the last column ends
    # the line early, and the line after it is the one refused
    original = list(solver_trace("cnn"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        got = _read(path, _edit_cell(_trace_text("cnn"), line, column, cell))
    if isinstance(got, list):
        if line > 0:
            field_type = next(f.type for f in fileio._FIELDS if f.name == column)
            value = CELL_VALUE[field_type](cell)
            original[line - 1] = dataclasses.replace(original[line - 1], **{column: value})
        assert got == original
        return
    rows = {line + 1, line + 2} if "\n" in cell else {line + 1}
    named = got.removeprefix("malformed trace row ").split(" ", 1)[0]
    assert int(named) in rows, got
    if line > 0 and not set(",\r\n") & set(cell):
        assert got.startswith(f"malformed trace row {line + 1} in {path}: {column} "), got


@pytest.mark.parametrize(
    "offset, row, column",
    [
        pytest.param(5000, 48, "decrease", id="5000-48"),
        pytest.param(20000, 183, "grad_norm", id="20000-183"),
        pytest.param(60000, 481, "grad_norm", id="60000-481"),
    ],
)
def test_an_undecodable_byte_names_the_row_that_holds_it(tmp_path, offset, row, column):
    # the trace is read as bytes, so a byte outside ASCII is a malformed
    # cell like any other: its row and column are named, and the cell is
    # quoted in ASCII, whatever the locale
    data = _trace_text("quadratic-cli").encode()
    path = tmp_path / "trace.csv"
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    quoted = r"'[0-9.e-]*\\xff[0-9.e-]*'"
    with pytest.raises(FormatError, match=f"row {row} in .*: {column} {quoted} is not spelled"):
        read_trace_csv(path)


def test_an_undecodable_byte_counts_lone_cr_line_ends(tmp_path):
    # a lone \r ends no line, so the whole file, the byte after five of them
    # included, is the header line
    lines = _trace_text("identity").split("\r\n")
    lines[5] = "\xff" + lines[5]
    path = tmp_path / "trace.csv"
    path.write_bytes("\r".join(lines).encode("latin-1"))
    with pytest.raises(FormatError, match="row 1 in .*: the header is not k,eps,"):
        read_trace_csv(path)


def test_a_malformed_row_before_an_undecodable_byte_is_named_first(tmp_path):
    text = _edit_cell(_trace_text("quadratic-cli"), 3, "k", "+2")
    data = text.encode()
    path = tmp_path / "trace.csv"
    path.write_bytes(data[:20000] + b"\xff" + data[20000:])
    with pytest.raises(FormatError, match="row 4 in .*: k '\\+2' is not spelled"):
        read_trace_csv(path)


def test_final_gradient_consistent_with_tolerance():
    state, reason = lpam_run(
        QuadraticToy(), TwoBlockPoint(np.ones(3), np.ones(3)), QUAD_STATIONARITY
    )
    assert reason == EXIT_TOLERANCE
    cfg = QUAD_STATIONARITY
    last = state.trace[-1]
    assert cfg.eps_sigma * last.eps < cfg.eps_tol
    last_event = [r for r in state.trace if r.reduced][-1]
    assert last_event.grad_norm < cfg.eps_sigma * cfg.gamma * last_event.eps
    # termination fired because sigma * eps of the final iteration < eps_tol
    assert cfg.eps_sigma * last.eps < cfg.eps_tol
    assert math.isfinite(last.phi)
