"""The LPAM state machine: residual-PALM updates, safeguard, BCD fallback,
smoothing-parameter reduction and termination, plus the plain-BCD baseline.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .core import (
    NumericError,
    SmoothedObjective,
    TwoBlockPoint,
    grad_phi_eps,
    phi_eps,
    real_float,
    store_floats,
)
from .fileio import IterateRecord
# imported here only because perfbench's PATCH_POINTS and workloads look them up here
from .fileio import read_trace_csv, write_trace_csv

EXIT_TOLERANCE = "tolerance_met"
EXIT_ITERATION_CAP = "iteration_cap"
EXIT_NUMERIC = "numeric_error"
EXIT_LINE_SEARCH = "line_search_failure"

# phase schedule mirroring the learned step sizes: large early, small late
DEFAULT_TAU_SCHEDULE = (2.0,) * 3 + (1.0,) * 9 + (0.1,) * 3


class LineSearchError(RuntimeError):
    """Backtracking exceeded the hard cap without sufficient decrease."""


@dataclass(frozen=True)
class LpamConfig:
    """All solver hyperparameters, checked when made: a bad value raises ``ValueError``.

    Float fields are kept as floats and step-size schedules as tuples of
    floats, applied per phase by clamped index (iteration k beyond the end
    uses the last entry).
    """

    eps0: float = 0.01
    gamma: float = 0.9
    eps_sigma: float = 60000.0
    eps_tol: float = 0.0
    a: float = 1e-4
    ls_delta: float = 0.1
    rho: float = 0.5
    alpha_bar: float = 0.9
    beta_bar: float = 0.9
    step_alpha: Sequence[float] = (0.5,)
    step_tau: Sequence[float] = DEFAULT_TAU_SCHEDULE
    step_beta: Sequence[float] = (0.5,)
    step_gamma: Sequence[float] = DEFAULT_TAU_SCHEDULE
    max_iter: int = 100
    mode: str = "lpam"  # "bcd" disables the residual branch
    ls_max: int = 60

    def __post_init__(self) -> None:
        for name in _SCHEDULES:
            sched = getattr(self, name)
            if type(sched) is not tuple:
                try:
                    sched = tuple(sched)
                except TypeError:
                    raise ValueError(f"{name} must be a sequence of numbers") from None
                object.__setattr__(self, name, sched)
            if len(sched) < 1:
                raise ValueError(f"{name} schedule must have length >= 1")
        # one type test over every number; only a config that fails it is
        # converted value by value, which names a value that is no number
        entries = sum(_schedules(self), ())
        if not _FLOAT.issuperset(map(type, _float_fields(self) + entries)):
            store_floats(self, _FLOAT_FIELDS)
            for name in _SCHEDULES:
                sched = tuple([real_float(v, f"{name} entry") for v in getattr(self, name)])
                object.__setattr__(self, name, sched)
            entries = sum(_schedules(self), ())
        if not all(map(math.isfinite, entries)):
            name, bad = next(
                (name, v) for name in _SCHEDULES for v in getattr(self, name) if not math.isfinite(v)
            )
            raise ValueError(f"{name} entries must be finite numbers, got {bad!r}")
        if not (0 < self.eps0 < math.inf):
            raise ValueError("eps0 must be positive and finite")
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0 < self.eps_sigma < math.inf):
            raise ValueError("eps_sigma must be positive and finite")
        if not (0 <= self.eps_tol < math.inf):
            raise ValueError("eps_tol must be nonnegative and finite")
        if not (0 < self.a < math.inf):
            raise ValueError("safeguard constant a must be positive and finite")
        if not (0 < self.ls_delta < 1):
            raise ValueError("ls_delta must lie in (0, 1)")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")
        if not (0 < self.alpha_bar < 1 and 0 < self.beta_bar < 1):
            raise ValueError("alpha_bar and beta_bar must lie in (0, 1)")
        if self.mode not in ("lpam", "bcd"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, lo in (("max_iter", 0), ("ls_max", 1)):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, int) or n < lo:
                raise ValueError(f"{name} must be an integer >= {lo}")

    def reduction_threshold(self, eps: float) -> float:
        """The gradient norm below which an iteration at ``eps`` reduces it."""
        return self.eps_sigma * self.gamma * eps


_FLOAT_FIELDS = tuple(f.name for f in fields(LpamConfig) if f.type == "float")
_float_fields = operator.attrgetter(*_FLOAT_FIELDS)
_SCHEDULES = ("step_alpha", "step_tau", "step_beta", "step_gamma")
_schedules = operator.attrgetter(*_SCHEDULES)
_FLOAT = frozenset((float,))


def _sched(schedule: Sequence[float], k: int) -> np.ndarray:
    """The step size of phase ``k`` as a float64 0-d array (see :func:`_step`)."""
    return np.array(schedule[min(k, len(schedule) - 1)], np.float64)


@dataclass
class SolverState:
    """Iterate, smoothing parameter and trace of one run."""

    X: TwoBlockPoint
    eps: float
    trace: list[IterateRecord] = field(default_factory=list)

    @property
    def k(self) -> int:
        """Iterations completed: one trace record each."""
        return len(self.trace)


def _step(x: np.ndarray, g: np.ndarray, size: float | np.ndarray) -> np.ndarray:
    """x - size * g in one fresh array: the product's, so g, which an
    objective may share between calls, is never written.  ``size`` may be
    a float or a float64 0-d array, which gives the same bits; the residual
    step is given arrays, since numpy resolves a Python float against the
    array on every call."""
    t = g * size
    return np.subtract(x, t, t)


def u_step(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    eps: float,
    steps: tuple[float, float, float, float],
) -> TwoBlockPoint:
    """Residual-form candidate: two explicit gradient corrections per block.

    ``steps`` supplies (alpha, tau, beta, gamma), as floats or float64 0-d
    arrays.  Each block takes its separable gradient step, then its joint
    gradient step.  The candidate is returned evaluated, ready for the
    safeguard, which rejects it if it overflowed.
    """
    P = obj.evaluate(X)
    al, tau, be, ga = steps
    x1, x2 = X.x1, X.x2
    z1 = _step(x1, P.grad_h1(eps), al)
    u1 = _step(z1, obj.grad1_h(z1, x2, eps), tau)
    z2 = _step(x2, P.grad_h2(eps), be)
    u2 = _step(z2, obj.grad2_h(u1, z2, eps), ga)
    return obj.point(u1, u2)


def _trial(
    obj: SmoothedObjective, X: TwoBlockPoint, P: TwoBlockPoint, eps: float
) -> tuple[float, float, float]:
    """The objective at trial point P and P's step norms from X.

    A trial that overflows is rejected, not fatal: the objective reads inf
    when P or the objective at P is not finite, which fails every decrease
    test.
    """
    d1, d2 = P.diff_norms(X)
    if not P.is_finite():
        return math.inf, d1, d2
    try:
        return phi_eps(obj, P, eps), d1, d2
    except NumericError:
        return math.inf, d1, d2


def safeguard_check(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    U: TwoBlockPoint,
    eps: float,
    phi_x: float,
    grad_norm_x: float,
    config: LpamConfig,
) -> tuple[bool, float]:
    """Both safeguard inequalities for accepting the residual candidate.

    Sufficient decrease proportional to the squared step, and the
    gradient norm at X bounded by the step lengths scaled by 1/a, with
    a = ``config.a``.  ``phi_x`` and ``grad_norm_x`` are the objective and
    gradient norm at X.  Returns whether U is accepted and the objective at
    U.  A U that is not finite, or whose objective is not finite, is
    rejected with objective inf.
    """
    phi_u, d1, d2 = _trial(obj, X, U, eps)
    cond1 = phi_u - phi_x <= -config.a * (d1 * d1 + d2 * d2)
    cond2 = grad_norm_x <= (d1 + d2) / config.a
    return bool(cond1 and cond2), phi_u


def v_step_with_linesearch(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    eps: float,
    phi_x: float,
    grad_x: TwoBlockPoint,
    config: LpamConfig,
) -> tuple[TwoBlockPoint, int, float]:
    """Gauss-Seidel fallback step with backtracking on both step sizes.

    ``phi_x`` and ``grad_x`` are the objective and its full gradient at X.
    Returns (accepted point, evaluated; backtrack count; objective at the
    accepted point).  Step sizes start from ``config``'s (alpha_bar,
    beta_bar) every call and are both shrunk by rho until the
    sufficient-decrease condition with ls_delta holds, at most ls_max times.
    A trial that is not finite, or whose objective is not finite, backtracks.
    """
    x1, x2 = X.x1, X.x2
    gh2 = obj.evaluate(X).grad_h2(eps)
    al, be = config.alpha_bar, config.beta_bar
    for l in range(config.ls_max + 1):
        v1 = _step(x1, grad_x.x1, al)
        v2 = _step(x2, gh2 + obj.grad2_h(v1, x2, eps), be)
        V = obj.point(v1, v2)
        phi_v, d1, d2 = _trial(obj, X, V, eps)
        if phi_v - phi_x <= -config.ls_delta * (d1 * d1 + d2 * d2):
            return V, l, phi_v
        al *= config.rho
        be *= config.rho
    raise LineSearchError(f"no sufficient decrease within {config.ls_max} backtracks")


def lpam_run(
    obj: SmoothedObjective, X0: TwoBlockPoint, config: LpamConfig
) -> tuple[SolverState, str]:
    """Run the full solver loop; returns the final state and an exit reason.

    Per iteration: residual candidate, safeguard check, fallback with
    line search when the candidate is rejected, then the reduction check
    on the smoothing parameter and the termination test.  Every point is
    evaluated once (see :meth:`SmoothedObjective.evaluate`); the values at
    the accepted point carry over unless the smoothing parameter shrinks.
    A smoothing parameter that underflows to 0 ends the run as
    :data:`EXIT_NUMERIC`.  ``state.X`` is a plain point, so what the run
    cached does not outlive it.
    """
    if not X0.is_finite():
        raise ValueError("initial point must be finite")
    state = SolverState(X=X0.copy(), eps=config.eps0)
    X = obj.evaluate(state.X)
    exit_reason = EXIT_ITERATION_CAP
    # every schedule is at its last entry by iteration k_steady - 1, so the
    # steps made there serve every later iteration
    k_steady = max(map(len, _schedules(config)))
    residual = config.mode == "lpam"
    gamma, eps_sigma, eps_tol = config.gamma, config.eps_sigma, config.eps_tol
    threshold = config.reduction_threshold
    append = state.trace.append
    reduced = True  # phi and its gradient are taken afresh at the start point
    # a candidate or line-search trial that overflows is rejected by an
    # explicit check, and so is every other non-finite value the run meets
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter):
            eps = state.eps
            try:
                if reduced:
                    phi_x = phi_eps(obj, X, eps)
                    gx = grad_phi_eps(obj, X, eps)
                    gn_x = gx.norm()

                accepted = False
                ls_count = 0
                if residual:
                    if k < k_steady:
                        steps = (
                            _sched(config.step_alpha, k),
                            _sched(config.step_tau, k),
                            _sched(config.step_beta, k),
                            _sched(config.step_gamma, k),
                        )
                    Xn = u_step(obj, X, eps, steps)
                    accepted, phi_n = safeguard_check(obj, X, Xn, eps, phi_x, gn_x, config)
                if not accepted:
                    Xn = None  # frees the rejected candidate's cache during the line search
                    Xn, ls_count, phi_n = v_step_with_linesearch(obj, X, eps, phi_x, gx, config)
                gn = grad_phi_eps(obj, Xn, eps)
                gn_n = gn.norm()
            except NumericError:
                exit_reason = EXIT_NUMERIC
                break
            except LineSearchError:
                exit_reason = EXIT_LINE_SEARCH
                break

            reduced = gn_n < threshold(eps)
            # positional, in IterateRecord's field order: k, eps, phi,
            # grad_norm, branch, ls_count, decrease, reduced, phi_pre,
            # grad_norm_pre (keywords cost twice as much per row)
            append(
                IterateRecord(
                    k, eps, phi_n, gn_n, "u" if accepted else "v",
                    ls_count, phi_x - phi_n, reduced, phi_x, gn_x,
                )
            )
            X = Xn
            phi_x, gx, gn_x = phi_n, gn, gn_n
            if reduced:
                state.eps = gamma * eps
            # termination uses the smoothing parameter of this iteration
            if eps_sigma * eps < eps_tol:
                exit_reason = EXIT_TOLERANCE
                break
            if state.eps == 0.0:  # gamma * eps underflowed: phi_eps needs eps > 0
                exit_reason = EXIT_NUMERIC
                break
    state.X = TwoBlockPoint(X.x1, X.x2)
    return state, exit_reason
