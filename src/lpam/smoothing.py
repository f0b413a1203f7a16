"""Smoothed l2,1 group regularizer and its executable smoothing properties.

The regularizer acts on grouped features stored channel-major: a
(group_dim, num_groups) real matrix whose columns are per-pixel feature
vectors and whose rows are contiguous channels.  Groups with norm at or
below eps are penalized quadratically, the rest linearly; ties go to the
quadratic branch so the gradient stays continuous.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import SmoothedObjective, TwoBlockPoint, phi_eps


def group_norms(features: np.ndarray) -> np.ndarray:
    """Column-wise Euclidean norms of a (group_dim, num_groups) feature matrix.

    The squares of each column are added in the order ``np.sum`` adds the
    same values stored group-major, along a contiguous axis of length d:
    in order for d < 8; for 8 <= d <= 128 in eight strided accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
    order; above that through ``np.sum`` itself.  So the norms are
    bit-identical to ``np.sqrt(np.sum(g * g, axis=1))`` for
    ``g = np.ascontiguousarray(features.T)``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (group_dim, num_groups) matrix")
    d = len(features)
    if not 0 < d <= 128:
        g = np.ascontiguousarray(features.T)
        return np.sqrt(np.sum(g * g, axis=1))
    if d < 8:
        total, rest = features[0] * features[0], features[1:]
    else:
        r = [row * row for row in features[:8]]
        tail = d - d % 8
        for i in range(8, tail, 8):
            for acc, row in zip(r, features[i : i + 8]):
                acc += row * row
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        total, rest = r[0], features[tail:]
    for row in rest:
        total += row * row
    return np.sqrt(total, out=total)


def r_eps(
    features: np.ndarray, eps: float, norms: Optional[np.ndarray] = None
) -> float:
    """Smoothed l2,1 value: quadratic inside the eps-ball, linear outside.

    ``norms``, when given, are the precomputed ``group_norms(features)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if norms is None:
        norms = group_norms(features)
    inside = norms <= eps
    # taking by index is much faster than by boolean mask when inside and
    # outside groups interleave, and gives the same values in the same order
    quad = np.sum(norms[np.flatnonzero(inside)] ** 2) / (2.0 * eps)
    lin = np.sum(norms[np.flatnonzero(~inside)] - eps / 2.0)
    return float(quad + lin)


def grad_r_eps(
    features: np.ndarray,
    vjp: Callable[[np.ndarray], TwoBlockPoint],
    eps: float,
    norms: Optional[np.ndarray] = None,
) -> TwoBlockPoint:
    """Chain-rule gradient of r_eps through a feature extractor.

    Each group, a column, is weighted by g_i/max(||g_i||, eps): g_i/eps
    inside the eps-ball and the unit vector g_i/||g_i|| outside, so nothing
    divides by zero.  ``vjp`` maps stacked group weights w to the pullback of the
    extractor Jacobian applied to w; ``norms``, when given, are the
    precomputed ``group_norms(features)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    features = np.asarray(features, dtype=np.float64)
    if norms is None:
        norms = group_norms(features)
    return vjp(features * (1.0 / np.maximum(norms, eps)))


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
    g1 = grad_r_eps(features, vjp, eps1, norms)
    g2 = grad_r_eps(features, vjp, eps2, norms)
    d1 = np.max(np.abs(g1.x1 - g2.x1)) if g1.x1.size else 0.0
    d2 = np.max(np.abs(g1.x2 - g2.x2)) if g1.x2.size else 0.0
    return bool(max(d1, d2) <= tol)


def l21_norm(features: np.ndarray) -> float:
    """Unsmoothed l2,1 norm, used to test the pointwise bracketing of r_eps."""
    return float(np.sum(group_norms(features)))
