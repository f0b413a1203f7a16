"""Bundled smoothed objectives: a quadratic toy and the joint-recovery model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import MFunction, SmoothedObjective, TwoBlockPoint
from .operators import KSpaceData, MaskedDft
from .smoothing import grad_r_eps, half_count_m, r_eps


class QuadraticToy(SmoothedObjective):
    """H1 = ||x1||^2/2, H2 = ||x2||^2/2, H = ||x1 - x2||^2/2.

    Smooth for every eps, analytic minimizer at the origin; used to
    exercise the solver and the convergence diagnostics with a known
    Lipschitz constant.
    """

    def h1(self, x1, eps):
        return 0.5 * float(np.dot(x1, x1))

    def h2(self, x2, eps):
        return 0.5 * float(np.dot(x2, x2))

    def h(self, x1, x2, eps):
        d = x1 - x2
        return 0.5 * float(np.dot(d, d))

    def grad_h1(self, x1, eps):
        return np.asarray(x1, dtype=np.float64).copy()

    def grad_h2(self, x2, eps):
        return np.asarray(x2, dtype=np.float64).copy()

    def grad1_h(self, x1, x2, eps):
        return x1 - x2

    def grad2_h(self, x1, x2, eps):
        return x2 - x1

    def lipschitz_estimate(self, eps: float) -> float:
        # 1 + 1 + 2: each separable block plus the joint coupling
        return 4.0

    def m_function(self) -> MFunction:
        return MFunction.zero()


class JointRecovery(SmoothedObjective):
    """Two masked-DFT fidelities plus a weighted smoothed l2,1 joint term.

    ``extractor`` supplies grouped features and their VJP (identity or
    convolutional); ``lam`` is the regularization weight multiplying the
    smoothed l2,1 term.
    """

    def __init__(self, dft: MaskedDft, kspace: KSpaceData, extractor, lam: float):
        if lam < 0:
            raise ValueError("regularization weight must be nonnegative")
        if kspace.f1.shape != dft.shape:
            raise ValueError("k-space shape does not match operator")
        self.dft = dft
        self.kspace = kspace
        self.extractor = extractor
        self.lam = float(lam)

    def h1(self, x1, eps):
        return self.dft.fidelity(x1, self.kspace.f1)

    def h2(self, x2, eps):
        return self.dft.fidelity(x2, self.kspace.f2)

    def h(self, x1, x2, eps):
        feats = self.extractor.forward(TwoBlockPoint(x1, x2))
        return self.lam * r_eps(feats, eps)

    def grad_h1(self, x1, eps):
        return self.dft.grad_fidelity(x1, self.kspace.f1)

    def grad_h2(self, x2, eps):
        return self.dft.grad_fidelity(x2, self.kspace.f2)

    def grad_h(self, x1, x2, eps):
        feats, pullback = self.extractor.linearize(TwoBlockPoint(x1, x2))
        g = grad_r_eps(feats, pullback, eps)
        return self.lam * g.x1, self.lam * g.x2

    def grad1_h(self, x1, x2, eps):
        return self.grad_h(x1, x2, eps)[0]

    def grad2_h(self, x1, x2, eps):
        return self.grad_h(x1, x2, eps)[1]

    def lipschitz_estimate(self, eps: float) -> Optional[float]:
        # fidelity gradients are 1-Lipschitz under the unitary DFT;
        # the regularizer gradient scales like jac^2/eps plus curvature
        jac = self.extractor.jacobian_norm_bound()
        curv = self.extractor.curvature_bound()
        return 2.0 + self.lam * (jac * jac / eps + curv)

    def m_function(self) -> MFunction:
        return half_count_m(self.extractor.num_groups, self.lam)

    def zero_filled(self) -> TwoBlockPoint:
        """Adjoint reconstruction of the measured data, the standard
        learning-free initialization and quality baseline."""
        return TwoBlockPoint(
            self.dft.adjoint(self.kspace.f1), self.dft.adjoint(self.kspace.f2)
        )
