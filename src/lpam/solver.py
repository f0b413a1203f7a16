"""The LPAM state machine: residual-PALM updates, safeguard, BCD fallback,
smoothing-parameter reduction and termination, plus the plain-BCD baseline.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
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
from .fileio import FormatError

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

            reduced = gn_n < config.reduction_threshold(eps)
            append(
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


# the trace columns are the record's fields in declaration order
_FIELDS = fields(IterateRecord)
_HEADER = [f.name for f in _FIELDS]
_HEADER_TEXT = ",".join(_HEADER)
_HEADER_LINE = _HEADER_TEXT + "\r\n"
# one row as the writer formats it: eps, the pair phi,grad_norm and the
# pair phi_pre,grad_norm_pre come in as text, each formatted by %.17g
_ROW_FORMAT = "%d,%s,%s,%s,%d,%.17g,%d,%s\r\n"
# per field type, a cell's bytes as the writer spells them and its read: a
# number is a digit, after a minus sign for a negative one, then digits, '.',
# 'e' and signs (int() and float() alone would also read 0_3, ' 1' or +1)
_WRITTEN_CELLS = {
    "int": (rb"-?[0-9]+", int),
    "float": (rb"-?[0-9][0-9.e+-]*", float),
    "str": (rb"[uv]", bytes.decode),
    "bool": (rb"[01]", b"1".__eq__),
}
_COLUMNS = [(f, re.compile(_WRITTEN_CELLS[f.type][0]), _WRITTEN_CELLS[f.type][1]) for f in _FIELDS]
_WRITTEN_ROW = re.compile(b",".join(_WRITTEN_CELLS[f.type][0] for f in _FIELDS))


def write_trace_csv(trace: Sequence[IterateRecord], path) -> None:
    """Write the per-iteration trace as ASCII in one write, a ``\\r\\n``
    after each line; floats are written by ``%.17g``, so they read back bit
    for bit.  A row whose ``eps``, ``phi_pre`` and ``grad_norm_pre`` are the
    very objects of the previous row's ``eps``, ``phi`` and ``grad_norm``, as
    the solver carries them over, reuses their text; objects, not values,
    are compared, so ``0.0`` never takes the text of ``-0.0``."""
    lines = [_HEADER_LINE]
    eps = phi = grad_norm = object()  # the previous row's, whose text is at hand
    for r in trace:
        if r.eps is eps and r.phi_pre is phi and r.grad_norm_pre is grad_norm:
            pre = pair
        else:
            eps_text = "%.17g" % r.eps
            pre = "%.17g,%.17g" % (r.phi_pre, r.grad_norm_pre)
        eps, phi, grad_norm = r.eps, r.phi, r.grad_norm
        pair = "%.17g,%.17g" % (phi, grad_norm)
        lines.append(
            _ROW_FORMAT % (r.k, eps_text, pair, r.branch, r.ls_count, r.decrease, r.reduced, pre)
        )
    with open(path, "wb") as fh:
        fh.write("".join(lines).encode("ascii"))


def _row(line: bytes, k: int) -> None:
    """Raise ``ValueError`` naming the first cell, in column order, that
    row ``k`` of a trace may not hold; the cell is quoted in ASCII."""
    cells = line.split(b",")
    if len(cells) != len(_FIELDS):
        raise ValueError(f"expected {len(_FIELDS)} cells, found {len(cells)}")
    for (f, spelling, read), cell in zip(_COLUMNS, cells):
        try:
            x = read(cell) if spelling.fullmatch(cell) else None
        except ValueError:  # such as 1-2 or 1e, in a number's characters
            x = None
        if x is None:
            why = "is not spelled as a trace spells it"
        elif f.type == "float" and not math.isfinite(x):
            why = "is not finite"
        elif f.name == "k" and x != k:
            why = f"is not the row's k {k}"
        elif f.name == "eps" and x <= 0:
            why = "is not positive"
        elif f.name in ("ls_count", "grad_norm", "grad_norm_pre") and x < 0:
            why = "is negative"
        else:
            continue
        quoted = reprlib.repr(cell.decode("latin-1")).encode("ascii", "backslashreplace")
        raise ValueError(f"{f.name} {quoted.decode()} {why}")


class _Floats(dict):
    """Cell bytes to float, each cell converted at its first lookup."""

    def __missing__(self, cell: bytes) -> float:
        x = self[cell] = float(cell)
        return x


def _spelled_records(rows: list[bytes]) -> list[IterateRecord] | None:
    """The records of trace rows that :data:`_WRITTEN_ROW` matches,
    converted column by column; or None if a cell fails its read or its
    check."""
    if not rows:
        return []
    try:
        k, eps, phi_text, gn_text, branch, ls_count, decrease, reduced, phi_pre, gn_pre = zip(
            *[line.split(b",") for line in rows]
        )
        k, ls_count = list(map(int, k)), list(map(int, ls_count))
        phi, gn, decrease = [list(map(float, c)) for c in (phi_text, gn_text, decrease)]
        # eps repeats between reductions, and phi_pre and grad_norm_pre
        # repeat the previous row's phi and grad_norm in a row that carries
        # them over, so each cell in these columns is converted once
        eps = list(map(_Floats().__getitem__, eps))
        phi_pre = list(map(_Floats(zip(phi_text, phi)).__getitem__, phi_pre))
        gn_pre = list(map(_Floats(zip(gn_text, gn)).__getitem__, gn_pre))
    except ValueError:  # a cell such as 1-2 or 1e
        return None
    floats = (eps, phi, gn, decrease, phi_pre, gn_pre)
    if not (-math.inf < min(map(min, floats)) and max(map(max, floats)) < math.inf):
        return None
    if k != list(range(len(k))) or min(eps) <= 0 or min(min(ls_count), min(gn), min(gn_pre)) < 0:
        return None
    branch, reduced = map(bytes.decode, branch), map(b"1".__eq__, reduced)
    return list(
        map(IterateRecord, k, eps, phi, gn, branch, ls_count, decrease, reduced, phi_pre, gn_pre)
    )


def read_trace_csv(path) -> list[IterateRecord]:
    """Parse a trace in exactly the grammar :func:`write_trace_csv` writes,
    in ASCII bytes, whatever the locale, with lines ended by ``\\r\\n`` or
    ``\\n``, the last one optionally.  ``k`` must read 0, 1, 2, ... in row
    order, floats must be finite, ``eps`` positive and ``ls_count``,
    ``grad_norm`` and ``grad_norm_pre`` not negative.  Any other trace, such
    as one with a quoted cell, a lone ``\\r`` or a byte outside ASCII, raises
    :class:`~lpam.fileio.FormatError` naming the file, its first bad row and,
    for a bad cell, its column.

    Every well-formed trace takes one route: each line is matched against
    :data:`_WRITTEN_ROW`, then the rows are converted and checked column by
    column.  Only a refused trace is gone through again, row by row, to
    name its first bad row; the cell is quoted in ASCII, in at most 30
    characters, so the message is the same in every locale."""
    with open(path, "rb") as fh:
        data = fh.read()
    # per line: one match over the whole file keeps a 1.2 KB frame per row
    lines = data.replace(b"\r\n", b"\n").split(b"\n")
    if not lines[-1]:
        lines.pop()  # after the final line end
    if lines[:1] != [_HEADER_TEXT.encode()]:
        raise FormatError(f"malformed trace row 1 in {path}: the header is not {_HEADER_TEXT}")
    rows = lines[1:]
    if all(map(_WRITTEN_ROW.fullmatch, rows)) and (records := _spelled_records(rows)) is not None:
        return records
    for k, line in enumerate(rows):  # a row is malformed: name the first
        try:
            _row(line, k)
        except ValueError as exc:
            raise FormatError(f"malformed trace row {k + 2} in {path}: {exc}") from exc
    raise AssertionError(f"the rows of {path} pass every check that their columns fail")
