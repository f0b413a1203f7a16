"""Smoothed l2,1 group regularizer and its executable smoothing properties.

The regularizer acts on grouped features: a (num_groups, d) real matrix
whose rows are per-pixel feature vectors.  Groups with norm at or below
eps are penalized quadratically, the rest linearly; ties go to the
quadratic branch so the gradient stays continuous.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import MFunction, SmoothedObjective, TwoBlockPoint, phi_eps


def group_norms(features: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms of a (num_groups, d) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (num_groups, d) matrix")
    return np.sqrt(np.sum(features * features, axis=1))


def r_eps(features: np.ndarray, eps: float) -> float:
    """Smoothed l2,1 value: quadratic inside the eps-ball, linear outside."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    norms = group_norms(features)
    inside = norms <= eps
    quad = np.sum(norms[inside] ** 2) / (2.0 * eps)
    lin = np.sum(norms[~inside] - eps / 2.0)
    return float(quad + lin)


def grad_r_eps(
    features: np.ndarray,
    vjp: Callable[[np.ndarray], TwoBlockPoint],
    eps: float,
) -> TwoBlockPoint:
    """Chain-rule gradient of r_eps through a feature extractor.

    Each group is weighted by g_i/eps inside the eps-ball and by the unit
    vector g_i/||g_i|| outside; the outside branch never divides by zero
    because ||g_i|| > eps > 0 there.  ``vjp`` maps stacked group weights
    w to the pullback of the extractor Jacobian applied to w.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    features = np.asarray(features, dtype=np.float64)
    norms = group_norms(features)
    scale = np.empty_like(norms)
    inside = norms <= eps
    scale[inside] = 1.0 / eps
    scale[~inside] = 1.0 / norms[~inside]
    return vjp(features * scale[:, None])


def half_count_m(num_groups: int, weight: float = 1.0) -> MFunction:
    """The monotonicity function for the l2,1 smoothing: weight*n*eps/2."""
    return MFunction(lambda eps: 0.5 * weight * num_groups * eps)


def check_c3(
    obj: SmoothedObjective,
    m: MFunction,
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
    lhs = phi_eps(obj, P, eps) + m.evaluate(eps)
    rhs = phi_eps(obj, P, delta) + m.evaluate(delta)
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
    g1 = grad_r_eps(features, vjp, eps1)
    g2 = grad_r_eps(features, vjp, eps2)
    d1 = np.max(np.abs(g1.x1 - g2.x1)) if g1.x1.size else 0.0
    d2 = np.max(np.abs(g1.x2 - g2.x2)) if g1.x2.size else 0.0
    return bool(max(d1, d2) <= tol)


def l21_norm(features: np.ndarray) -> float:
    """Unsmoothed l2,1 norm, used to test the pointwise bracketing of r_eps."""
    return float(np.sum(group_norms(features)))
