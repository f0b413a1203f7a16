"""Core domain types: two-block iterates and the smoothed objective contract.

Everything downstream (solver, diagnostics, CLI) works against the
``SmoothedObjective`` interface defined here; the bundled instantiations
live in :mod:`lpam.objectives`.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericError(RuntimeError):
    """A solver-fatal non-finite value was produced, named by its source."""


class ConfigError(ValueError):
    """A configuration value that its spec refuses."""


def store_floats(spec, names: tuple[str, ...], where: str = "") -> None:
    """Store the fields ``names`` of the frozen dataclass ``spec`` as floats.

    Each must hold a real number other than a bool, else a
    :class:`ConfigError` names the first that does not, after the prefix
    ``where``.  Finiteness is left to the spec's range checks, which name
    their bounds: an int beyond the float range is stored as inf for them
    to refuse.
    """
    for name in names:
        value = getattr(spec, name)
        if type(value) is not float:
            object.__setattr__(spec, name, real_float(value, where + name))


def real_float(value, name: str) -> float:
    """``value`` as a float, an int beyond the float range as inf; a
    :class:`ConfigError` naming ``name`` if it is not a real number or is a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf
    raise ConfigError(f"{name} must be a number, got {value!r}")


class _ScratchPool(threading.local):
    """Per-thread scratch arrays of the convolutions and DFTs.  Reusing them
    keeps the allocator from returning the pages to the OS between calls
    and faulting them back in."""

    def __init__(self):
        self.bufs: dict = {}


_scratch = _ScratchPool()


def scratch(key: tuple, make: Callable[[], tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """This thread's buffers for ``key``, made by ``make()`` on first use.  A
    key starts with its user's tag, ``"conv"`` or ``"dft"``, so no two
    users share a buffer."""
    bufs = _scratch.bufs
    if key not in bufs:
        bufs[key] = make()
    return bufs[key]


@dataclass(frozen=True, eq=False)
class TwoBlockPoint:
    """The iterate X = (x1, x2), two real vectors of fixed lengths.

    For the joint-recovery instantiation both blocks have length
    height*width and are row-major flattenings of images.  The blocks'
    squared norms are computed once, on first use by :meth:`is_finite`,
    :meth:`norm`, a quadratic point's ``h1`` or ``h2`` or a joint-recovery
    point's pair transform, so the arrays must not be mutated after any of
    these has read them.
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

    def _squared_norms(self) -> tuple[np.float64, np.float64]:
        # kept in the instance dict, as functools.cached_property keeps a
        # value, without that descriptor's per-call lock.  np.vdot gives
        # np.dot's bits on a real vector but sets no floating-point flag, so
        # a sum that overflows reads inf without a warning and without the
        # cost of an np.errstate around it
        sq = self.__dict__.get("_sq")
        if sq is None:
            sq = self.__dict__["_sq"] = np.vdot(self.x1, self.x1), np.vdot(self.x2, self.x2)
        return sq

    def is_finite(self) -> bool:
        """No entry of either block is NaN or infinite."""
        # a finite sum of squares rules out NaN and infinity in one pass;
        # one that is not (an overflow, or a bad entry) has each entry tested
        d1, d2 = self._squared_norms()
        return (math.isfinite(d1) or bool(np.isfinite(self.x1).all())) and (
            math.isfinite(d2) or bool(np.isfinite(self.x2).all())
        )

    def norm(self) -> float:
        """l2 norm of the concatenated vector."""
        d1, d2 = self._squared_norms()
        return float(np.sqrt(d1 + d2))

    def diff_norms(self, other: "TwoBlockPoint") -> tuple[float, float]:
        """(||x1 - y1||, ||x2 - y2||)."""
        # sqrt(dot(d, d)) is what np.linalg.norm computes for a real vector;
        # np.vdot gives its bits, and an overflow reads inf without a warning
        d1, d2 = self.x1 - other.x1, self.x2 - other.x2
        return math.sqrt(np.vdot(d1, d1)), math.sqrt(np.vdot(d2, d2))


class EvaluatedPoint(TwoBlockPoint):
    """A point bound to the objective that evaluates it.

    Made by :meth:`SmoothedObjective.point` and
    :meth:`SmoothedObjective.evaluate`.  Each objective's point class
    defines six methods that take only eps: ``h1``, ``h2`` and ``h``, the
    three terms, and ``grad_h1``, ``grad_h2`` and ``grad_h``, their
    gradients, where ``grad_h`` is the one route to both partial gradients
    of the joint term, (grad1_h, grad2_h).  A point may keep the
    eps-independent work of its terms, so the arrays must not be mutated
    after evaluation.  Returned arrays may be shared between calls and may
    be the point's own blocks, so no caller writes them.
    """

    def __init__(self, x1, x2, obj: "SmoothedObjective"):
        super().__init__(x1, x2)
        object.__setattr__(self, "obj", obj)


class SmoothedObjective:
    """Contract for a smoothed two-block objective.

    For every eps > 0 the implementor supplies points that evaluate the
    separable terms, the joint term and their gradients, the joint term's
    partial gradients at single points, and a Lipschitz estimate for the
    full gradient.  Implementations must be immutable after construction
    and all calls pure.  :func:`phi_eps` and :func:`grad_phi_eps` read the
    terms from :meth:`evaluate`; the solver's residual and fallback steps
    read :meth:`grad1_h` and :meth:`grad2_h` at points they never evaluate
    whole.
    """

    def point(self, x1: np.ndarray, x2: np.ndarray) -> EvaluatedPoint:
        """A new point (x1, x2) bound to this objective."""
        raise NotImplementedError

    def evaluate(self, X: TwoBlockPoint) -> EvaluatedPoint:
        """X bound to this objective; a point already bound to it comes back as is."""
        if isinstance(X, EvaluatedPoint) and X.obj is self:
            return X
        return self.point(X.x1, X.x2)

    def grad1_h(self, x1: np.ndarray, x2: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def grad2_h(self, x1: np.ndarray, x2: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def lipschitz_estimate(self, eps: float) -> float:
        """Upper bound on the sum of the three gradient Lipschitz constants."""
        raise NotImplementedError


def phi_eps(obj: SmoothedObjective, X: TwoBlockPoint, eps: float) -> float:
    """Smoothed objective value: the three-term sum at X.

    A :class:`NumericError` names the first term that is not finite, or
    the sum when three finite terms overflow it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    P = obj.evaluate(X)
    h1, h2, h = P.h1(eps), P.h2(eps), P.h(eps)
    total = h1 + h2 + h
    # a finite total has three finite terms; otherwise name the first bad one
    if not math.isfinite(total):
        for name, val in (("h1", h1), ("h2", h2), ("h", h)):
            if not np.isfinite(val):
                raise NumericError(f"non-finite objective term {name!r}: {val}")
        raise NumericError(f"objective sum h1 + h2 + h overflows: {h1} + {h2} + {h}")
    return total


def grad_phi_eps(obj: SmoothedObjective, X: TwoBlockPoint, eps: float) -> TwoBlockPoint:
    """Full gradient of the smoothed objective as a two-block point.

    The l2 norm of the returned point is the gradient norm used by the
    safeguard and reduction criteria.  A :class:`NumericError` is raised
    when an entry is not finite, or when the norm of finite entries
    overflows.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    P = obj.evaluate(X)
    gh1, gh2 = P.grad_h(eps)
    g1 = P.grad_h1(eps) + gh1
    g2 = P.grad_h2(eps) + gh2
    G = TwoBlockPoint(g1, g2)
    # a finite sum of the squared block norms rules out both faults
    d1, d2 = G._squared_norms()
    if not math.isfinite(d1 + d2):
        if not G.is_finite():
            raise NumericError("non-finite entries in objective gradient")
        raise NumericError("objective gradient norm overflows")
    return G
