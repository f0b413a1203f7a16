import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lpam import solver
from lpam.core import TwoBlockPoint, grad_phi_eps, phi_eps
from lpam.extractor import IdentityExtractor, random_extractor
from lpam.fileio import FormatError
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.solver import (
    EXIT_ITERATION_CAP,
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    EXIT_TOLERANCE,
    IterateRecord,
    LpamConfig,
    lpam_run,
    read_trace_csv,
    safeguard_check,
    u_step,
    v_step_with_linesearch,
    write_trace_csv,
)

from tests.oracles import PerCallQuadratic, half_count_m, write_trace_csv_reference

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


class AscentObjective(PerCallQuadratic):
    """Wrong-sign gradients: every candidate increases the objective."""

    def grad_h1(self, x1, eps):
        return -np.asarray(x1, dtype=np.float64)

    def grad_h2(self, x2, eps):
        return -np.asarray(x2, dtype=np.float64)

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


class NanGradObjective(PerCallQuadratic):
    def grad1_h(self, x1, x2, eps):
        return np.full_like(x1, np.nan)


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


class NanGradNearOriginObjective(PerCallQuadratic):
    """Finite gradient at the start, NaN wherever x1 has moved toward 0."""

    def grad_h1(self, x1, eps):
        return np.where(np.abs(x1) < 0.99, np.nan, x1)


@pytest.mark.parametrize("mode", ["lpam", "bcd"])
def test_nonfinite_gradient_at_accepted_point_ends_the_run(mode):
    cfg = dataclasses.replace(QUAD_STATIONARITY, mode=mode)
    state, reason = lpam_run(NanGradNearOriginObjective(), TwoBlockPoint([1.0], [1.0]), cfg)
    assert reason == EXIT_NUMERIC
    assert state.k == 0


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


class BarrierObjective(PerCallQuadratic):
    """The quadratic toy with h1 infinite wherever an entry of x1 is negative."""

    def h1(self, x1, eps):
        return math.inf if (x1 < 0).any() else super().h1(x1, eps)


def test_line_search_backtracks_from_a_nonfinite_trial():
    # the first trial, x1 = 1 - 0.9 * 2, lies behind the barrier; the
    # second, with half the steps, does not and decreases enough
    obj = BarrierObjective()
    X = TwoBlockPoint([1.0], [0.0])
    V, l, phi_v = v_step_with_linesearch(obj, X, 0.1, *at(obj, X, 0.1), LINE_SEARCH)
    assert l == 1
    assert V.x1[0] == pytest.approx(0.1)
    assert phi_v == phi_eps(obj, V, 0.1)


class ReadOnlyQuadratic(QuadraticToy):
    """The quadratic toy whose points' blocks cannot be written, so a run
    that wrote an array the objective returned would raise."""

    def point(self, x1, x2):
        P = super().point(x1, x2)
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


@given(st.lists(records, max_size=4))
@example([])
@example(
    [
        IterateRecord(0, 0.0, -0.0, 5e-324, "u", 0, 1e308, True, math.inf, math.nan),
        IterateRecord(2**70, -5e-324, -math.inf, -1e308, "v", -(2**70), -0.0, False, 0.1, 1 / 3),
    ]
)
def test_trace_writer_matches_the_csv_writer(trace):
    assert _written(write_trace_csv, trace) == _written(write_trace_csv_reference, trace)


@pytest.mark.parametrize("kind", ["quadratic", "identity", "cnn"])
def test_solver_traces_are_written_as_the_csv_writer_writes_them(kind):
    if kind == "quadratic":
        obj, X0, cfg = QuadraticToy(), TwoBlockPoint(np.ones(4), -np.ones(4)), QUAD_STATIONARITY
    else:
        inst = generate_instance(InstanceSpec(height=8, width=8), 0)
        ext = IdentityExtractor(8, 8) if kind == "identity" else random_extractor(8, 8, seed=1)
        obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
        X0, cfg = obj.zero_filled(), LpamConfig(max_iter=10)
    trace = lpam_run(obj, X0, cfg)[0].trace
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
