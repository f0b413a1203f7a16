"""The LPAM state machine: residual-PALM updates, safeguard, BCD fallback,
smoothing-parameter reduction and termination, plus the plain-BCD baseline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

from .core import (
    NumericError,
    SmoothedObjective,
    TwoBlockPoint,
    grad_phi_eps,
    phi_eps,
)

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
    """All solver hyperparameters.

    Step-size fields holding sequences are per-phase schedules applied by
    clamped index (iteration k beyond the end uses the last entry).
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

    def validate(self) -> None:
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
        for name in ("step_alpha", "step_tau", "step_beta", "step_gamma"):
            sched = getattr(self, name)
            if len(sched) < 1:
                raise ValueError(f"{name} schedule must have length >= 1")
        if self.mode not in ("lpam", "bcd"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, lo in (("max_iter", 0), ("ls_max", 1)):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, int) or n < lo:
                raise ValueError(f"{name} must be an integer >= {lo}")


def _sched(schedule: Sequence[float], k: int) -> float:
    return float(schedule[min(k, len(schedule) - 1)])


@dataclass
class IterateRecord:
    """One row of the solver trace."""

    k: int
    eps: float
    phi: float  # objective at the accepted new point, current eps
    grad_norm: float  # gradient norm at the accepted new point, current eps
    branch: str  # "u" | "v"
    ls_count: int
    decrease: float  # phi(X^k) - phi(X^{k+1}) at current eps
    reduced: bool  # smoothing parameter reduced after this iteration
    phi_pre: float  # objective at the pre-step point, current eps
    grad_norm_pre: float  # gradient norm at the pre-step point, current eps


@dataclass
class SolverState:
    """Iterate, smoothing parameter and trace of one run."""

    X: TwoBlockPoint
    eps: float
    k: int = 0
    trace: list[IterateRecord] = field(default_factory=list)


def u_step(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    eps: float,
    steps: tuple[float, float, float, float],
) -> TwoBlockPoint:
    """Residual-form candidate: two explicit gradient corrections per block.

    ``steps`` supplies (alpha, tau, beta, gamma).  Each block takes its
    separable gradient step, then its joint gradient step.  The candidate
    is returned evaluated, ready for the safeguard.
    """
    P = obj.evaluate(X)
    al, tau, be, ga = steps
    x1, x2 = X.x1, X.x2
    z1 = x1 - al * P.grad_h1(eps)
    u1 = z1 - tau * obj.grad1_h(z1, x2, eps)
    z2 = x2 - be * P.grad_h2(eps)
    u2 = z2 - ga * obj.grad2_h(u1, z2, eps)
    U = obj.point(u1, u2)
    if not U.is_finite():
        raise NumericError("non-finite candidate produced by residual update")
    return U


def safeguard_check(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    U: TwoBlockPoint,
    eps: float,
    phi_x: float,
    grad_norm_x: float,
    a: float,
) -> tuple[bool, float]:
    """Both safeguard inequalities for accepting the residual candidate.

    Sufficient decrease proportional to the squared step, and the
    gradient norm at X bounded by the step lengths scaled by 1/a.
    ``phi_x`` and ``grad_norm_x`` are the objective and gradient norm at
    X.  Returns whether U is accepted and the objective at U.
    """
    if a <= 0:
        raise ValueError("safeguard constant a must be positive")
    d1, d2 = U.diff_norms(X)
    phi_u = phi_eps(obj, U, eps)
    cond1 = phi_u - phi_x <= -a * (d1 * d1 + d2 * d2)
    cond2 = grad_norm_x <= (d1 + d2) / a
    return bool(cond1 and cond2), phi_u


def v_step_with_linesearch(
    obj: SmoothedObjective,
    X: TwoBlockPoint,
    eps: float,
    phi_x: float,
    grad_x: TwoBlockPoint,
    alpha_bar: float,
    beta_bar: float,
    rho: float,
    ls_delta: float,
    ls_max: int = 60,
) -> tuple[TwoBlockPoint, int, float]:
    """Gauss-Seidel fallback step with backtracking on both step sizes.

    ``phi_x`` and ``grad_x`` are the objective and its full gradient at X.
    Returns (accepted point, evaluated; backtrack count; objective at the
    accepted point).  Step sizes start from (alpha_bar, beta_bar) every
    call and are both shrunk by rho until the sufficient-decrease
    condition holds.
    """
    x1, x2 = X.x1, X.x2
    gh2 = obj.evaluate(X).grad_h2(eps)
    al, be = alpha_bar, beta_bar
    for l in range(ls_max + 1):
        v1 = x1 - al * grad_x.x1
        v2 = x2 - be * (gh2 + obj.grad2_h(v1, x2, eps))
        V = obj.point(v1, v2)
        if not V.is_finite():
            raise NumericError("non-finite fallback candidate")
        phi_v = phi_eps(obj, V, eps)
        d1, d2 = V.diff_norms(X)
        if phi_v - phi_x <= -ls_delta * (d1 * d1 + d2 * d2):
            return V, l, phi_v
        al *= rho
        be *= rho
    raise LineSearchError(f"no sufficient decrease within {ls_max} backtracks")


def lpam_run(
    obj: SmoothedObjective, X0: TwoBlockPoint, config: LpamConfig
) -> tuple[SolverState, str]:
    """Run the full solver loop; returns the final state and an exit reason.

    Per iteration: residual candidate, safeguard check, fallback with
    line search when the candidate is rejected, then the reduction check
    on the smoothing parameter and the termination test.  Every point is
    evaluated once (see :meth:`SmoothedObjective.evaluate`); the values at
    the accepted point carry over unless the smoothing parameter shrinks.
    ``state.X`` is a plain point, so what the run cached does not outlive it.
    """
    config.validate()
    if not X0.is_finite():
        raise ValueError("initial point must be finite")
    state = SolverState(X=X0.copy(), eps=config.eps0)
    X = obj.evaluate(state.X)
    exit_reason = EXIT_ITERATION_CAP
    for k in range(config.max_iter):
        eps = state.eps
        try:
            if k == 0 or state.trace[-1].reduced:
                phi_x = phi_eps(obj, X, eps)
                gx = grad_phi_eps(obj, X, eps)
                gn_x = gx.norm()

            accepted = False
            ls_count = 0
            if config.mode == "lpam":
                steps = (
                    _sched(config.step_alpha, k),
                    _sched(config.step_tau, k),
                    _sched(config.step_beta, k),
                    _sched(config.step_gamma, k),
                )
                Xn = u_step(obj, X, eps, steps)
                accepted, phi_n = safeguard_check(obj, X, Xn, eps, phi_x, gn_x, config.a)
            if not accepted:
                Xn = None  # frees the rejected candidate's cache during the line search
                Xn, ls_count, phi_n = v_step_with_linesearch(
                    obj,
                    X,
                    eps,
                    phi_x,
                    gx,
                    config.alpha_bar,
                    config.beta_bar,
                    config.rho,
                    config.ls_delta,
                    config.ls_max,
                )
            gn = grad_phi_eps(obj, Xn, eps)
            gn_n = gn.norm()
        except NumericError:
            exit_reason = EXIT_NUMERIC
            break
        except LineSearchError:
            exit_reason = EXIT_LINE_SEARCH
            break

        reduced = gn_n < config.eps_sigma * config.gamma * eps
        state.trace.append(
            IterateRecord(
                k=k,
                eps=eps,
                phi=phi_n,
                grad_norm=gn_n,
                branch="u" if accepted else "v",
                ls_count=ls_count,
                decrease=phi_x - phi_n,
                reduced=reduced,
                phi_pre=phi_x,
                grad_norm_pre=gn_x,
            )
        )
        X = Xn
        state.k = k + 1
        phi_x, gx, gn_x = phi_n, gn, gn_n
        if reduced:
            state.eps = config.gamma * eps
        # termination uses the smoothing parameter of this iteration
        if config.eps_sigma * eps < config.eps_tol:
            exit_reason = EXIT_TOLERANCE
            break
    state.X = TwoBlockPoint(X.x1, X.x2)
    return state, exit_reason


# (format, parse) per IterateRecord field type, floats byte-stable; the
# trace columns are the record's fields in declaration order
_CODECS = {
    "int": (str, int),
    "float": (lambda x: format(x, ".17g"), float),
    "str": (str, str),
    "bool": (lambda b: str(int(b)), lambda s: bool(int(s))),
}
_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(IterateRecord)]
_HEADER = [name for name, _, _ in _COLUMNS]


def write_trace_csv(trace: Sequence[IterateRecord], path) -> None:
    """Write the per-iteration trace; float formatting is byte-stable."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_HEADER)
        for r in trace:
            w.writerow([fmt(getattr(r, name)) for name, fmt, _ in _COLUMNS])


class TraceParseError(ValueError):
    """Malformed trace file; the message names the offending row."""


def read_trace_csv(path) -> list[IterateRecord]:
    """Parse a trace; ``k`` must read 0, 1, 2, ... in row order, since the
    audits look rows up by iteration."""
    records: list[IterateRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HEADER:
            raise TraceParseError(f"bad or missing header in {path}")
        for i, row in enumerate(reader, start=2):
            try:
                if len(row) != len(_HEADER):
                    raise ValueError(f"{len(row)} fields, expected {len(_HEADER)}")
                values = [parse(cell) for (_, _, parse), cell in zip(_COLUMNS, row)]
                records.append(IterateRecord(*values))
                if records[-1].branch not in ("u", "v"):
                    raise ValueError("branch must be 'u' or 'v'")
                if records[-1].k != len(records) - 1:
                    raise ValueError(f"k = {records[-1].k}, expected {len(records) - 1}")
            except ValueError as exc:
                raise TraceParseError(f"malformed trace row {i} in {path}: {exc}") from exc
    return records
