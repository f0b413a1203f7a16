"""Bundled smoothed objectives: a quadratic toy and the joint-recovery model.

The joint-recovery model's regularizer is the smoothed l2,1 norm of the
extractor's feature groups: groups with norm at or below eps are
penalized quadratically, the rest linearly, and ties go to the quadratic
branch so the gradient stays continuous.  Its value reads only the group
norms and its gradient only the extractor's weighted pullback (see
``linearize_groups`` in :mod:`lpam.extractor`), so neither needs the
features themselves.
"""

from __future__ import annotations

from functools import cached_property
import numpy as np

from .core import EvaluatedPoint, SmoothedObjective, TwoBlockPoint
from .extractor import WeightedPullback
from .operators import KSpaceData, MaskedDft, squared_norm


class QuadraticPoint(EvaluatedPoint):
    """A point of :class:`QuadraticToy`.

    H1 and H2 are half the squared block norms the point already holds for
    :meth:`is_finite`, and their gradients are the blocks themselves, not
    copies: no caller writes an array an objective returns.  The
    difference x1 - x2 is formed once, on first use by H or its gradient,
    and kept: H is half its squared norm and it is the gradient's first
    block.
    """

    def _diff(self) -> np.ndarray:
        d = self.__dict__.get("_d")
        if d is None:
            d = self.__dict__["_d"] = self.x1 - self.x2
        return d

    def h1(self, eps):
        return 0.5 * float(self._squared_norms()[0])

    def h2(self, eps):
        return 0.5 * float(self._squared_norms()[1])

    def h(self, eps):
        d = self._diff()
        return 0.5 * float(np.vdot(d, d))

    def grad_h1(self, eps):
        return self.x1

    def grad_h2(self, eps):
        return self.x2

    def grad_h(self, eps):
        # x2 - x1, not -d: where x1 == x2 both differences are +0.0
        return self._diff(), self.x2 - self.x1


class QuadraticToy(SmoothedObjective):
    """H1 = ||x1||^2/2, H2 = ||x2||^2/2, H = ||x1 - x2||^2/2.

    Smooth for every eps, analytic minimizer at the origin; used to
    exercise the solver and the convergence diagnostics with a known
    Lipschitz constant.  Its points are :class:`QuadraticPoint`.  The
    per-call h1, h2, h, grad_h1 and grad_h2 give the same values, and no
    solve calls them: they stay because ``perfbench``'s tracer wraps them
    by name.
    """

    def h1(self, x1, eps):
        return 0.5 * float(np.vdot(x1, x1))

    def h2(self, x2, eps):
        return 0.5 * float(np.vdot(x2, x2))

    def h(self, x1, x2, eps):
        d = x1 - x2
        return 0.5 * float(np.vdot(d, d))

    def grad_h1(self, x1, eps):
        return np.asarray(x1, dtype=np.float64).copy()

    def grad_h2(self, x2, eps):
        return np.asarray(x2, dtype=np.float64).copy()

    def grad1_h(self, x1, x2, eps):
        return x1 - x2

    def grad2_h(self, x1, x2, eps):
        return x2 - x1

    def point(self, x1, x2) -> QuadraticPoint:
        return QuadraticPoint(x1, x2, self)

    def lipschitz_estimate(self, eps: float) -> float:
        # 1 + 1 + 2: each separable block plus the joint coupling
        return 4.0


def r_eps(norms: np.ndarray, eps: float) -> float:
    """Smoothed l2,1 value from the group norms: quadratic inside the
    eps-ball, linear outside.

    With m = min(norms, eps), the sum of n^2/(2 eps) over the groups inside
    and of n - eps/2 over those outside is dot(m, m)/(2 eps) + sum(norms - m):
    an outside group's m is eps, and its eps^2/(2 eps) joins n - eps to
    make n - eps/2.  A norm equal to eps gives eps/2 either way.  norms - m
    is exact for a norm up to 2 eps, so a norm just above eps loses
    nothing to cancellation; NaN and inf norms give NaN and inf.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = np.minimum(norms, eps)
    return float(np.dot(m, m) / (2.0 * eps) + np.sum(norms - m))


def grad_r_eps(
    norms: np.ndarray, weighted_pullback: WeightedPullback, eps: float
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


class RecoveryPoint(EvaluatedPoint):
    """A point of :class:`JointRecovery` that does its eps-independent work once.

    Both k-space residuals (on the sampled frequencies, from one paired
    transform), both fidelity values and gradients (from one paired
    inverse transform), and the extractor's group norms, their range and
    weighted pullback are computed on first use and kept, so a new eps
    costs one r_eps weighting and, for the gradient, at most one pullback.
    When every group lies inside the eps-ball (largest norm <= eps, the tie
    rule of :func:`r_eps`) the gradient is lam/eps times the pullback of 1,
    within a few ulps of the direct pullback; otherwise it is lam times
    :func:`grad_r_eps` at key = max(eps, smallest norm), whose weights are
    those at eps bit for bit.  The pullback thus depends on eps only
    through its key (inf inside); it is kept unscaled under a key other
    than eps, so a point the eps-ball splits keeps none.  The gradient
    depends only on the point and eps, not on which eps the point served
    before, so a run restarted from an iterate repeats the full run.  eps
    only shrinks, so after a reduction the accepted point reuses its
    pullback whenever its key is the same at both eps: with every group
    inside, or every group outside.  The all-outside reuse is rare on
    short runs but common on long convolutional ones (100-iteration runs
    at 32^2 make 23 % more pullbacks without it).
    """

    @cached_property
    def _residuals(self) -> tuple[np.ndarray, np.ndarray]:
        # the pair kernels balance their two channels by squared norms: the
        # point's own for the residuals, the residuals' for the gradients
        data = self.obj.kspace
        return self.obj.dft.residual_pair(
            self.x1, self.x2, data.y1, data.y2, dots=self._squared_norms()
        )

    @cached_property
    def _residual_dots(self) -> tuple[float, float]:
        # kept whole: each fidelity is half of one, and halving a subnormal
        # to double it again would lose its last bit
        return tuple(squared_norm(r) for r in self._residuals)

    @cached_property
    def _fidelity_grads(self) -> tuple[np.ndarray, np.ndarray]:
        return self.obj.dft.adjoint_pair(*self._residuals, dots=self._residual_dots)

    @cached_property
    def _groups(self):
        # the group norms, their smallest and largest, and the weighted
        # pullback, taken at a plain point: a pullback that referenced self
        # would make a cycle that only the cyclic garbage collector frees
        norms, pullback = self.obj.extractor.linearize_groups(TwoBlockPoint(self.x1, self.x2))
        return norms, float(norms.min()), float(norms.max()), pullback

    def h1(self, eps):
        return 0.5 * self._residual_dots[0]

    def h2(self, eps):
        return 0.5 * self._residual_dots[1]

    def h(self, eps):
        return self.obj.lam * r_eps(self._groups[0], eps)

    def grad_h1(self, eps):
        return self._fidelity_grads[0]

    def grad_h2(self, eps):
        return self._fidelity_grads[1]

    def grad_h(self, eps):
        # the key follows from the point's norm range and eps alone, so the
        # result does not depend on which eps the point served before
        norms, lo, hi, pullback = self._groups
        if hi <= eps:
            key, scale = np.inf, self.obj.lam / eps
        else:
            key, scale = max(eps, lo), self.obj.lam
        kept = self.__dict__.get("_kept")
        if kept is not None and kept[0] == key:
            g = kept[1]
        else:
            g = pullback(1.0) if key == np.inf else grad_r_eps(norms, pullback, key)
            if key != eps:
                self.__dict__["_kept"] = key, g
        return scale * g.x1, scale * g.x2


class JointRecovery(SmoothedObjective):
    """Two masked-DFT fidelities plus a weighted smoothed l2,1 joint term.

    ``extractor`` supplies the group norms and the weighted pullback of
    its features (identity or convolutional) for images of the
    operator's shape; ``kspace`` must be sampled on the operator's mask
    (``ValueError`` otherwise); ``lam`` is the regularization weight
    multiplying the smoothed l2,1 term.  A solve evaluates it through
    :class:`RecoveryPoint` and the per-block partials; no solve calls the
    per-call h1, h2, h, grad_h1 and grad_h2, which build the full data on
    each call and stay because ``perfbench``'s tracer wraps them by name.
    """

    def __init__(self, dft: MaskedDft, kspace: KSpaceData, extractor, lam: float):
        if not 0 <= lam < np.inf:
            raise ValueError("regularization weight must be nonnegative and finite")
        if kspace.dft is not dft and not np.array_equal(kspace.dft.mask, dft.mask):
            raise ValueError("k-space data were sampled on another mask than the operator's")
        if (extractor.height, extractor.width) != dft.shape:
            raise ValueError(
                f"extractor is {extractor.height}x{extractor.width}, "
                f"operator is {dft.shape[0]}x{dft.shape[1]}"
            )
        self.dft = dft
        self.kspace = kspace
        self.extractor = extractor
        self.lam = float(lam)

    def h1(self, x1, eps):
        return self.dft.fidelity(x1, self.kspace.f1)

    def h2(self, x2, eps):
        return self.dft.fidelity(x2, self.kspace.f2)

    def h(self, x1, x2, eps):
        return self.point(x1, x2).h(eps)

    def grad_h1(self, x1, eps):
        return self.dft.grad_fidelity(x1, self.kspace.f1)

    def grad_h2(self, x2, eps):
        return self.dft.grad_fidelity(x2, self.kspace.f2)

    def grad1_h(self, x1, x2, eps):
        return self._partial_h(x1, x2, eps, 0)

    def grad2_h(self, x1, x2, eps):
        return self._partial_h(x1, x2, eps, 1)

    def _partial_h(self, x1, x2, eps, block):
        """One block of :meth:`RecoveryPoint.grad_h` at (x1, x2), bit for bit,
        with no point built and only that block pulled back.

        Every group inside the eps-ball gives lam/eps times the pullback of
        1, as on a point; otherwise lam times the pullback of the weights
        1/max(norms, eps), a point's weights, here written over the call's
        own norms.
        """
        if eps <= 0:
            raise ValueError("eps must be positive")
        norms, pullback = self.extractor.linearize_groups(TwoBlockPoint(x1, x2))
        if norms.max() <= eps:
            g = pullback(1.0, block)
            g *= self.lam / eps
            return g
        # the norms are this call's own, so they hold the weights
        np.maximum(norms, eps, out=norms)
        np.divide(1.0, norms, out=norms)
        g = pullback(norms, block)
        g *= self.lam
        return g

    def point(self, x1, x2) -> RecoveryPoint:
        return RecoveryPoint(x1, x2, self)

    def lipschitz_estimate(self, eps: float) -> float:
        # fidelity gradients are 1-Lipschitz under the unitary DFT;
        # the regularizer gradient scales like jac^2/eps plus curvature
        jac = self.extractor.jacobian_norm_bound()
        curv = self.extractor.curvature_bound()
        return 2.0 + self.lam * (jac * jac / eps + curv)

    def zero_filled(self) -> TwoBlockPoint:
        """Adjoint reconstruction of the measured data, the standard
        learning-free initialization and quality baseline."""
        data = self.kspace
        return TwoBlockPoint(self.dft.adjoint_sampled(data.y1), self.dft.adjoint_sampled(data.y2))
