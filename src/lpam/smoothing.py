"""Smoothed l2,1 group regularizer: its value and chain-rule gradient.

The regularizer acts on grouped features stored channel-major: a
(group_dim, num_groups) real matrix whose columns are per-pixel feature
vectors and whose rows are contiguous channels.  Groups with norm at or
below eps are penalized quadratically, the rest linearly; ties go to the
quadratic branch so the gradient stays continuous.  The value reads only
the group norms and the gradient only the extractor's weighted pullback
(see ``linearize_groups`` in :mod:`lpam.extractor`), so neither needs
the features themselves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import TwoBlockPoint


def group_norms(features: np.ndarray) -> np.ndarray:
    """Column-wise Euclidean norms of a (group_dim, num_groups) feature matrix.

    One einsum over the channels.  For group_dim below 8 it adds each
    column's squares in order, so the norms are bit-identical to
    ``np.sqrt(np.sum(g * g, axis=1))`` for ``g = features.T`` stored
    contiguously; from 8 on they agree with it within a few ulps.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (group_dim, num_groups) matrix")
    return np.sqrt(np.einsum("ij,ij->j", features, features))


def r_eps(norms: np.ndarray, eps: float) -> float:
    """Smoothed l2,1 value from the group norms: quadratic inside the
    eps-ball, linear outside."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    inside = norms <= eps
    # taking by index is much faster than by boolean mask when inside and
    # outside groups interleave, and gives the same values in the same order
    quad = np.sum(norms[np.flatnonzero(inside)] ** 2) / (2.0 * eps)
    lin = np.sum(norms[np.flatnonzero(~inside)] - eps / 2.0)
    return float(quad + lin)


def grad_r_eps(
    norms: np.ndarray,
    weighted_pullback: Callable[[np.ndarray], TwoBlockPoint],
    eps: float,
) -> TwoBlockPoint:
    """Chain-rule gradient of r_eps through a feature extractor.

    Each group g_i is weighted by g_i/max(||g_i||, eps): g_i/eps inside
    the eps-ball and the unit vector g_i/||g_i|| outside, so nothing
    divides by zero.  ``weighted_pullback`` maps one scale per group, r,
    to the pullback of the extractor Jacobian applied to the features
    scaled column by column, J^T(F * r); ``norms`` are the group norms.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return weighted_pullback(1.0 / np.maximum(norms, eps))
