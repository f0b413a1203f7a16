"""Test oracles: the paper's smoothing conditions, a gradient by finite
differences and fresh-array convolutions with their adjoint.

C3 is the near-monotonicity of the smoothed family in eps with a
correction m(eps); C4 is the eps-independence of the regularizer
gradient when every group is active.  Neither a solve nor an audit
needs them, so they live with the tests that check the package against
them.  The convolutions run the extractor's own ``_conv`` kernel at its
narrowest pitch and copy the result out of its scratch buffer, and
:func:`fresh_pool` runs a scratch-pool test from an empty pool.  The
radial mask and the layer bounds compute what the package's vectorised
forms compute, one spoke or one kernel tap per call; the phantom and the
mirror indices compute theirs on full-size coordinate grids.  The trace
writer is the ``csv.writer`` one that the package's single-format writer
must match byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import threading
from typing import Callable

import numpy as np

from lpam import core
from lpam.core import SmoothedObjective, TwoBlockPoint, phi_eps
from lpam.extractor import _adjoint_kernel, _conv, group_norms
from lpam.objectives import grad_r_eps
from lpam.operators import _check_ratio
from lpam.solver import IterateRecord


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
            ys = np.clip(np.round(cy + ts * np.sin(ang)).astype(int), 0, height - 1)
            xs = np.clip(np.round(cx + ts * np.cos(ang)).astype(int), 0, width - 1)
            mask[ys, xs] = True

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
    ys = np.clip(np.round(cy + ts * np.sin(angle)).astype(int), 0, height - 1)
    xs = np.clip(np.round(cx + ts * np.cos(angle)).astype(int), 0, width - 1)
    return set(zip(ys.tolist(), xs.tolist()))


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
