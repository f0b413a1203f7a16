"""Test oracles: the paper's smoothing conditions, a gradient by finite
differences and fresh-array convolutions with their adjoint.

C3 is the near-monotonicity of the smoothed family in eps with a
correction m(eps); C4 is the eps-independence of the regularizer
gradient when every group is active.  Neither a solve nor an audit
needs them, so they live with the tests that check the package against
them.  The convolutions run the extractor's own ``_conv`` kernel at its
narrowest pitch and copy the result out of its scratch buffer, and
:func:`fresh_pool` runs a scratch-pool test from an empty pool.  The
radial mask, the spoke coverage bound and the layer bounds compute what
the package's vectorised forms compute, one spoke, spoke count or kernel
tap per call; the phantom and the mirror indices compute theirs on
full-size coordinate grids.  The trace
writer is the ``csv.writer`` one that the package's single-format writer
must match byte for byte.  :func:`reference_lpam_run` is the solver's
state machine step by step, with every value taken afresh, which the
solver's carried-over and cached values must reproduce bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import threading
from typing import Callable

import numpy as np

from lpam import core
from lpam.core import NumericError, SmoothedObjective, TwoBlockPoint, grad_phi_eps, phi_eps
from lpam.extractor import _adjoint_kernel, _conv, group_norms
from lpam.objectives import grad_r_eps
from lpam.operators import _check_ratio
from lpam.solver import (
    EXIT_ITERATION_CAP,
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    EXIT_TOLERANCE,
    IterateRecord,
    LpamConfig,
)


def conv_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded correlation of (in,h,wd) by (out,in,kh,kw), as a fresh array."""
    wd = x.shape[2]
    return _conv(x, w, wd + w.shape[3] - 1)[:, :, :wd].copy()


def conv_backward(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`conv_forward` with respect to the input."""
    return conv_forward(g, _adjoint_kernel(w))


def fresh_pool(test: Callable[[], None]) -> Callable[[], None]:
    """Run a test body in a new thread, whose scratch pool starts empty, so
    the test sees only the buffers its own calls make; what the body
    raises is raised again in the calling thread."""

    @functools.wraps(test)
    def in_new_thread() -> None:
        raised = []

        def body() -> None:
            try:
                assert not core._scratch.bufs
                test()
            except BaseException as exc:  # raised again below
                raised.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        if raised:
            raise raised[0]

    return in_new_thread


def finite_difference_grad(
    obj: SmoothedObjective, X: TwoBlockPoint, eps: float, step: float = 1e-6
) -> TwoBlockPoint:
    """Central finite differences of phi_eps, the independent gradient oracle.

    Per-coordinate step is step*max(1, |x_i|).
    """
    out = []
    for which in (0, 1):
        base = X.x1 if which == 0 else X.x2
        g = np.zeros_like(base)
        for i in range(base.size):
            h = step * max(1.0, abs(base[i]))
            xp = base.copy()
            xm = base.copy()
            xp[i] += h
            xm[i] -= h
            if which == 0:
                fp = phi_eps(obj, TwoBlockPoint(xp, X.x2), eps)
                fm = phi_eps(obj, TwoBlockPoint(xm, X.x2), eps)
            else:
                fp = phi_eps(obj, TwoBlockPoint(X.x1, xp), eps)
                fm = phi_eps(obj, TwoBlockPoint(X.x1, xm), eps)
            g[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return TwoBlockPoint(out[0], out[1])


def half_count_m(num_groups: int, weight: float = 1.0) -> Callable[[float], float]:
    """The monotonicity function for the l2,1 smoothing: weight*n*eps/2."""
    return lambda eps: 0.5 * weight * num_groups * eps


def check_c3(
    obj: SmoothedObjective,
    m: Callable[[float], float],
    X: TwoBlockPoint,
    eps: float,
    delta: float,
) -> bool:
    """Near-monotonicity of the smoothed family in the smoothing parameter.

    True iff phi_eps(X) + m(eps) <= phi_delta(X) + m(delta) up to 1e-12
    relative slack, for 0 < eps <= delta.
    """
    if not (0 < eps <= delta):
        raise ValueError("require 0 < eps <= delta")
    P = obj.evaluate(X)
    lhs = phi_eps(obj, P, eps) + m(eps)
    rhs = phi_eps(obj, P, delta) + m(delta)
    slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + slack


def check_c4_stable_branch(
    features: np.ndarray,
    vjp: Callable[[np.ndarray], TwoBlockPoint],
    eps1: float,
    eps2: float,
    tol: float = 1e-12,
) -> bool:
    """eps-independence of the regularizer gradient when all groups are active.

    With both smoothing parameters strictly below every group norm the
    linear branch carries no eps, so the two gradients must coincide to
    ``tol``; a group caught inside either eps-ball makes the gradients
    differ and the check report False.  This is the finite, testable
    shadow of the limiting stationarity condition.
    """
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("smoothing parameters must be positive")
    norms = group_norms(features)
    weighted_pullback = lambda r: vjp(features * r)
    g1 = grad_r_eps(norms, weighted_pullback, eps1)
    g2 = grad_r_eps(norms, weighted_pullback, eps2)
    d1 = np.max(np.abs(g1.x1 - g2.x1)) if g1.x1.size else 0.0
    d2 = np.max(np.abs(g1.x2 - g2.x2)) if g1.x2.size else 0.0
    return bool(max(d1, d2) <= tol)


def l21_norm(features: np.ndarray) -> float:
    """Unsmoothed l2,1 norm, used to test the pointwise bracketing of r_eps."""
    return float(np.sum(group_norms(features)))


def radial_mask(height: int, width: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-radial mask drawn one spoke at a time, every spoke count from 1.

    The reference that :func:`lpam.operators.radial_mask` must equal bit
    for bit, with the same draws from ``rng``.
    """
    _check_ratio(ratio)
    n = height * width
    target = max(1, round(ratio * n))
    cy, cx = height // 2, width // 2
    radius = float(np.hypot(height, width))

    mask = np.zeros((height, width), dtype=bool)
    num_spokes = 0
    ts = np.arange(-radius, radius, 0.5)
    while mask.sum() < target and num_spokes < 4 * max(height, width):
        num_spokes += 1
        angles = np.pi * np.arange(num_spokes) / num_spokes
        mask[:] = False
        for ang in angles:
            ys = np.round(cy + ts * np.sin(ang)).astype(int)
            xs = np.round(cx + ts * np.cos(ang)).astype(int)
            on = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
            mask[ys[on], xs[on]] = True

    flat = mask.ravel()
    count = int(flat.sum())
    if count > target:
        on = np.flatnonzero(flat)
        center = cy * width + cx
        on = on[on != center]  # keep the zero frequency sampled
        drop = rng.choice(on, size=count - target, replace=False)
        flat[drop] = False
    elif count < target:
        off = np.flatnonzero(~flat)
        add = rng.choice(off, size=target - count, replace=False)
        flat[add] = True
    return np.fft.ifftshift(flat.reshape(height, width))


def mirror_indices(mask: np.ndarray) -> np.ndarray:
    """The flat indices of the mirrors -k (mod the shape) of a mask's
    sampled frequencies k, read off a full-size grid of every mirror."""
    h, w = mask.shape
    mirror = (-np.arange(h) % h)[:, None] * w + (-np.arange(w) % w)
    return mirror.reshape(-1)[np.flatnonzero(mask)]


def shared_structure_phantom(
    height: int, width: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The phantom pair on full-size ``np.mgrid`` coordinates, the reference
    that :func:`lpam.operators.shared_structure_phantom` must equal bit for
    bit, with the same draws from ``rng``."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img1 = np.zeros((height, width))
    img2 = np.zeros((height, width))

    cy = height * (0.35 + 0.1 * rng.random())
    cx = width * (0.4 + 0.1 * rng.random())
    ry = height * (0.12 + 0.05 * rng.random())
    rx = width * (0.16 + 0.05 * rng.random())
    ell = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    img1[ell] = 0.9
    img2[ell] = 0.6

    ry0 = int(height * (0.6 + 0.05 * rng.random()))
    rx0 = int(width * (0.55 + 0.05 * rng.random()))
    rh = max(2, int(height * 0.12))
    rw = max(2, int(width * 0.18))
    rect = np.zeros_like(ell)
    rect[ry0 : min(ry0 + rh, height), rx0 : min(rx0 + rw, width)] = True
    img1[rect] = 0.5
    img2[rect] = 1.0

    for img, level in ((img1, 0.7), (img2, 0.8)):
        by = height * (0.15 + 0.6 * rng.random())
        bx = width * (0.15 + 0.6 * rng.random())
        br = max(1.5, 0.05 * min(height, width))
        blob = (yy - by) ** 2 + (xx - bx) ** 2 <= br**2
        img[blob] = level

    return img1, img2


def spoke_pixels(height: int, width: int, angle: float) -> set[tuple[int, int]]:
    """The pixels one spoke of :func:`radial_mask` at ``angle`` covers."""
    cy, cx = height // 2, width // 2
    radius = float(np.hypot(height, width))
    ts = np.arange(-radius, radius, 0.5)
    ys = np.round(cy + ts * np.sin(angle)).astype(int)
    xs = np.round(cx + ts * np.cos(angle)).astype(int)
    on = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
    return set(zip(ys[on].tolist(), xs[on].tolist()))


def coverage_bound(num_spokes: int, height: int, width: int) -> float:
    """The bound of :func:`lpam.operators._coverage_bound` for one spoke
    count, from that count's angles alone: the reference its one pass over
    many counts must equal exactly."""
    cy, cx = height // 2, width // 2
    a = np.pi * np.arange(num_spokes) / num_spokes
    spans = np.empty((2, num_spokes))
    np.multiply(np.abs(np.tan(a)), 2 * cx + 1, out=spans[0])
    np.multiply(np.abs(np.tan(np.pi / 2 - a)), 2 * cy + 1, out=spans[1])
    spans += 1e-6
    np.minimum(spans, [[height - 2], [width - 2]], out=spans)
    box = 2 * min(num_spokes // 4, height - 1 - cy, width - 1 - cx) + 1
    return box * box + num_spokes * (3 - box) + float(np.floor(spans, out=spans).sum())


def layer_bounds(weights) -> list[float]:
    """Per layer, the sum over kernel taps of each tap's (out, in) matrix
    spectral norm, one ``np.linalg.norm`` call per tap."""
    bounds = []
    for w in weights:
        taps = w.reshape(w.shape[0], w.shape[1], -1)
        bounds.append(sum(float(np.linalg.norm(taps[:, :, t], 2)) for t in range(taps.shape[2])))
    return bounds


# the csv.writer cell of each IterateRecord field type
_REFERENCE_CELLS = {
    "int": str,
    "float": lambda x: format(x, ".17g"),
    "str": str,
    "bool": lambda b: str(int(b)),
}


def write_trace_csv_reference(trace, path) -> None:
    """The trace CSV as ``csv.writer`` writes it: the header, then one row
    per record of its fields' cells, each line ended by ``\\r\\n``."""
    columns = [(f.name, _REFERENCE_CELLS[f.type]) for f in dataclasses.fields(IterateRecord)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([name for name, _ in columns])
        for r in trace:
            w.writerow([cell(getattr(r, name)) for name, cell in columns])


def reference_lpam_run(
    obj: SmoothedObjective, X0: TwoBlockPoint, config: LpamConfig
) -> tuple[list[IterateRecord], str, TwoBlockPoint]:
    """The LPAM iteration transcribed step by step: (trace, exit reason,
    final point) of :func:`lpam.solver.lpam_run` on the same arguments.

    Every value is taken afresh where the step needs it: phi and its
    gradient at each iterate through a new point, the step sizes from the
    schedules at each k, each step as x - s*g, each step length and
    gradient norm from its vector.  Nothing carries over between
    iterations or between the steps of one.
    """
    if not (np.isfinite(X0.x1).all() and np.isfinite(X0.x2).all()):
        raise ValueError("initial point must be finite")

    def phi(x1, x2, eps):
        return phi_eps(obj, TwoBlockPoint(x1, x2), eps)

    def grad(x1, x2, eps):
        return grad_phi_eps(obj, TwoBlockPoint(x1, x2), eps)

    def norm(g1, g2):
        return math.sqrt(np.dot(g1, g1) + np.dot(g2, g2))

    def trial(x1, x2, y1, y2, eps):
        # phi at (y1, y2), inf if it or the point is not finite, and the
        # step lengths from (x1, x2)
        d1, d2 = np.linalg.norm(y1 - x1), np.linalg.norm(y2 - x2)
        if not (np.isfinite(y1).all() and np.isfinite(y2).all()):
            return math.inf, d1, d2
        try:
            return phi(y1, y2, eps), d1, d2
        except NumericError:
            return math.inf, d1, d2

    def at(schedule, k):
        return float(schedule[min(k, len(schedule) - 1)])

    x1, x2 = X0.x1.copy(), X0.x2.copy()
    eps = config.eps0
    trace: list[IterateRecord] = []
    reason = EXIT_ITERATION_CAP
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter):
            try:
                phi_x = phi(x1, x2, eps)
                g = grad(x1, x2, eps)
                gn_x = norm(g.x1, g.x2)
                accepted, ls_count = False, 0
                if config.mode == "lpam":
                    # residual candidate: per block, the separable gradient
                    # step at the iterate, then the joint gradient step
                    al, tau = at(config.step_alpha, k), at(config.step_tau, k)
                    be, ga = at(config.step_beta, k), at(config.step_gamma, k)
                    z1 = x1 - al * obj.point(x1, x2).grad_h1(eps)
                    u1 = z1 - tau * obj.grad1_h(z1, x2, eps)
                    z2 = x2 - be * obj.point(x1, x2).grad_h2(eps)
                    u2 = z2 - ga * obj.grad2_h(u1, z2, eps)
                    # safeguard: sufficient decrease, and the gradient norm
                    # bounded by the step lengths
                    phi_u, d1, d2 = trial(x1, x2, u1, u2, eps)
                    accepted = (
                        phi_u - phi_x <= -config.a * (d1 * d1 + d2 * d2)
                        and gn_x <= (d1 + d2) / config.a
                    )
                    if accepted:
                        y1, y2, phi_n = u1, u2, phi_u
                if not accepted:
                    # Gauss-Seidel fallback, both step sizes backtracked
                    al, be = config.alpha_bar, config.beta_bar
                    for ls_count in range(config.ls_max + 1):
                        v1 = x1 - al * g.x1
                        gv2 = obj.point(x1, x2).grad_h2(eps) + obj.grad2_h(v1, x2, eps)
                        v2 = x2 - be * gv2
                        phi_v, d1, d2 = trial(x1, x2, v1, v2, eps)
                        if phi_v - phi_x <= -config.ls_delta * (d1 * d1 + d2 * d2):
                            break
                        al *= config.rho
                        be *= config.rho
                    else:
                        reason = EXIT_LINE_SEARCH
                        break
                    y1, y2, phi_n = v1, v2, phi_v
                gn = grad(y1, y2, eps)
                gn_n = norm(gn.x1, gn.x2)
            except NumericError:
                reason = EXIT_NUMERIC
                break
            reduced = gn_n < config.eps_sigma * config.gamma * eps
            trace.append(
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
            x1, x2 = y1, y2
            if config.eps_sigma * eps < config.eps_tol:
                reason = EXIT_TOLERANCE
                break
            if reduced:
                eps = config.gamma * eps
                if eps == 0.0:
                    reason = EXIT_NUMERIC
                    break
    return trace, reason, TwoBlockPoint(x1, x2)
