"""Core domain types: two-block iterates and the smoothed objective contract.

Everything downstream (solver, diagnostics, CLI) works against the
``SmoothedObjective`` interface defined here; the bundled instantiations
live in :mod:`lpam.objectives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericError(RuntimeError):
    """A solver-fatal non-finite value was produced, named by its source."""


@dataclass(frozen=True)
class TwoBlockPoint:
    """The iterate X = (x1, x2), two real vectors of fixed lengths.

    For the joint-recovery instantiation both blocks have length
    height*width and are row-major flattenings of images.
    """

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=np.float64))
        object.__setattr__(self, "x2", np.asarray(self.x2, dtype=np.float64))
        if self.x1.ndim != 1 or self.x2.ndim != 1:
            raise ValueError("blocks must be 1-d vectors")

    @property
    def n(self) -> int:
        return self.x1.size

    @property
    def m(self) -> int:
        return self.x2.size

    def copy(self) -> "TwoBlockPoint":
        return TwoBlockPoint(self.x1.copy(), self.x2.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.x1)) and np.all(np.isfinite(self.x2)))

    def norm(self) -> float:
        """l2 norm of the concatenated vector."""
        return float(np.sqrt(np.dot(self.x1, self.x1) + np.dot(self.x2, self.x2)))

    def diff_norms(self, other: "TwoBlockPoint") -> tuple[float, float]:
        """(||x1 - y1||, ||x2 - y2||)."""
        return (
            float(np.linalg.norm(self.x1 - other.x1)),
            float(np.linalg.norm(self.x2 - other.x2)),
        )

    @staticmethod
    def zeros(n: int, m: int) -> "TwoBlockPoint":
        return TwoBlockPoint(np.zeros(n), np.zeros(m))


class EvaluatedPoint(TwoBlockPoint):
    """A point bound to the objective that evaluates it.

    Made by :meth:`SmoothedObjective.point` and
    :meth:`SmoothedObjective.evaluate`.  The methods mirror the
    objective's per-call methods at this point and take only eps.  This
    generic class forwards each call, so it caches nothing; an objective
    whose terms share eps-independent work returns a subclass that
    computes that work once.  The arrays must not be mutated after
    evaluation, and returned arrays may be shared between calls.
    """

    def __init__(self, x1, x2, obj: "SmoothedObjective"):
        super().__init__(x1, x2)
        object.__setattr__(self, "obj", obj)

    def h1(self, eps: float) -> float:
        return self.obj.h1(self.x1, eps)

    def h2(self, eps: float) -> float:
        return self.obj.h2(self.x2, eps)

    def h(self, eps: float) -> float:
        return self.obj.h(self.x1, self.x2, eps)

    def grad_h1(self, eps: float) -> np.ndarray:
        return self.obj.grad_h1(self.x1, eps)

    def grad_h2(self, eps: float) -> np.ndarray:
        return self.obj.grad_h2(self.x2, eps)

    def grad_h(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        return self.obj.grad_h(self.x1, self.x2, eps)


class SmoothedObjective:
    """Contract for a smoothed two-block objective.

    For every eps > 0 the implementor supplies the separable terms, the
    joint term, their gradients, a Lipschitz estimate for the full
    gradient and the monotonicity function m.  Implementations must be
    immutable after construction and all calls pure.  :func:`phi_eps`
    and :func:`grad_phi_eps` read the terms from :meth:`evaluate`.
    """

    def point(self, x1: np.ndarray, x2: np.ndarray) -> EvaluatedPoint:
        """A new point (x1, x2) bound to this objective.

        Override to return an :class:`EvaluatedPoint` subclass that
        computes the eps-independent work of the terms once.
        """
        return EvaluatedPoint(x1, x2, self)

    def evaluate(self, X: TwoBlockPoint) -> EvaluatedPoint:
        """X bound to this objective; a point already bound to it comes back as is."""
        if isinstance(X, EvaluatedPoint) and X.obj is self:
            return X
        return self.point(X.x1, X.x2)

    def h1(self, x1: np.ndarray, eps: float) -> float:
        raise NotImplementedError

    def h2(self, x2: np.ndarray, eps: float) -> float:
        raise NotImplementedError

    def h(self, x1: np.ndarray, x2: np.ndarray, eps: float) -> float:
        raise NotImplementedError

    def grad_h1(self, x1: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def grad_h2(self, x2: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def grad1_h(self, x1: np.ndarray, x2: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def grad2_h(self, x1: np.ndarray, x2: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def grad_h(
        self, x1: np.ndarray, x2: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both partial gradients of the joint term, (grad1_h, grad2_h).

        Override when the two share work, such as one pass through a
        feature extractor.
        """
        return self.grad1_h(x1, x2, eps), self.grad2_h(x1, x2, eps)

    def lipschitz_estimate(self, eps: float) -> float:
        """Upper bound on the sum of the three gradient Lipschitz constants."""
        raise NotImplementedError

    def m_function(self) -> Callable[[float], float]:
        """The monotonicity correction m: a continuous nonnegative function
        of eps with m(0) = 0, as used by :func:`lpam.smoothing.check_c3`."""
        raise NotImplementedError


def phi_eps(obj: SmoothedObjective, X: TwoBlockPoint, eps: float) -> float:
    """Smoothed objective value: the three-term sum at X."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    P = obj.evaluate(X)
    terms = {"h1": P.h1(eps), "h2": P.h2(eps), "h": P.h(eps)}
    for name, val in terms.items():
        if not np.isfinite(val):
            raise NumericError(f"non-finite objective term {name!r}: {val}")
    return terms["h1"] + terms["h2"] + terms["h"]


def grad_phi_eps(obj: SmoothedObjective, X: TwoBlockPoint, eps: float) -> TwoBlockPoint:
    """Full gradient of the smoothed objective as a two-block point.

    The l2 norm of the returned point is the gradient norm used by the
    safeguard and reduction criteria.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    P = obj.evaluate(X)
    gh1, gh2 = P.grad_h(eps)
    g1 = P.grad_h1(eps) + gh1
    g2 = P.grad_h2(eps) + gh2
    G = TwoBlockPoint(g1, g2)
    if not G.is_finite():
        raise NumericError("non-finite entries in objective gradient")
    return G


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
