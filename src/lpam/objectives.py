"""Bundled smoothed objectives: a quadratic toy and the joint-recovery model."""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .core import EvaluatedPoint, SmoothedObjective, TwoBlockPoint
from .operators import KSpaceData, MaskedDft, residual_energy
from .smoothing import grad_r_eps, group_norms, half_count_m, r_eps


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

    def m_function(self) -> Callable[[float], float]:
        return lambda eps: 0.0


class RecoveryPoint(EvaluatedPoint):
    """A point of :class:`JointRecovery` that does its eps-independent work once.

    Both k-space residuals, both fidelity values and gradients, the
    extractor's features and pullback and the features' group norms are
    computed on first use and kept, so a new eps costs one r_eps
    weighting and one pullback.
    """

    @cached_property
    def _residuals(self) -> tuple[np.ndarray, np.ndarray]:
        dft, data = self.obj.dft, self.obj.kspace
        return dft.residual(self.x1, data.f1), dft.residual(self.x2, data.f2)

    @cached_property
    def _fidelities(self) -> tuple[float, float]:
        return tuple(residual_energy(r) for r in self._residuals)

    @cached_property
    def _fidelity_grads(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self.obj.dft.adjoint(r) for r in self._residuals)

    @cached_property
    def _linearization(self):
        # linearize a plain point: a pullback that referenced self would
        # make a cycle that only the cyclic garbage collector frees
        return self.obj.extractor.linearize(TwoBlockPoint(self.x1, self.x2))

    @cached_property
    def _norms(self) -> np.ndarray:
        return group_norms(self._linearization[0])

    def h1(self, eps):
        return self._fidelities[0]

    def h2(self, eps):
        return self._fidelities[1]

    def h(self, eps):
        return self.obj.lam * r_eps(self._linearization[0], eps, self._norms)

    def grad_h1(self, eps):
        return self._fidelity_grads[0]

    def grad_h2(self, eps):
        return self._fidelity_grads[1]

    def grad_h(self, eps):
        g = grad_r_eps(*self._linearization, eps, self._norms)
        return self.obj.lam * g.x1, self.obj.lam * g.x2


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
        return self.point(x1, x2).h(eps)

    def grad_h1(self, x1, eps):
        return self.dft.grad_fidelity(x1, self.kspace.f1)

    def grad_h2(self, x2, eps):
        return self.dft.grad_fidelity(x2, self.kspace.f2)

    def grad_h(self, x1, x2, eps):
        return self.point(x1, x2).grad_h(eps)

    def grad1_h(self, x1, x2, eps):
        return self.grad_h(x1, x2, eps)[0]

    def grad2_h(self, x1, x2, eps):
        return self.grad_h(x1, x2, eps)[1]

    def point(self, x1, x2) -> RecoveryPoint:
        return RecoveryPoint(x1, x2, self)

    def lipschitz_estimate(self, eps: float) -> float:
        # fidelity gradients are 1-Lipschitz under the unitary DFT;
        # the regularizer gradient scales like jac^2/eps plus curvature
        jac = self.extractor.jacobian_norm_bound()
        curv = self.extractor.curvature_bound()
        return 2.0 + self.lam * (jac * jac / eps + curv)

    def m_function(self) -> Callable[[float], float]:
        return half_count_m(self.extractor.num_groups, self.lam)

    def zero_filled(self) -> TwoBlockPoint:
        """Adjoint reconstruction of the measured data, the standard
        learning-free initialization and quality baseline."""
        return TwoBlockPoint(
            self.dft.adjoint(self.kspace.f1), self.dft.adjoint(self.kspace.f2)
        )
