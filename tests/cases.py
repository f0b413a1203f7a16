"""Solver cases shared by several test modules: configs, a small recovery
objective and the traces of fixed runs, so no test module imports another."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from lpam.core import TwoBlockPoint
from lpam.extractor import IdentityExtractor, random_extractor
from lpam.fileio import IterateRecord
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance
from lpam.solver import LpamConfig, lpam_run

QUAD_STATIONARITY = LpamConfig(
    eps0=1.0,
    gamma=0.5,
    eps_sigma=1.0,
    eps_tol=1e-5,
    step_alpha=(0.05,),
    step_tau=(0.05,),
    step_beta=(0.05,),
    step_gamma=(0.05,),
    max_iter=2000,
)

# the quadratic-cli benchmark workload's solver settings: a run to eps_tol
# with 34 reductions, 879 of its 914 rows carrying eps, phi and grad_norm over
QUAD_CLI = dataclasses.replace(
    QUAD_STATIONARITY,
    eps_tol=1e-10,
    step_alpha=(0.03,),
    step_tau=(0.03,),
    step_beta=(0.03,),
    step_gamma=(0.03,),
)


def recovery_objective(size=8, seed=0, lam=0.0093):
    inst = generate_instance(InstanceSpec(height=size, width=size), seed)
    return JointRecovery(inst.dft, inst.kspace, IdentityExtractor(size, size), lam), inst


@functools.cache
def solver_trace(kind: str) -> tuple[IterateRecord, ...]:
    """The trace of one solver run: the quadratic toy from a fixed start,
    to tolerance, or ten iterations of an 8x8 identity or CNN recovery."""
    if kind == "quadratic":
        obj, X0, cfg = QuadraticToy(), TwoBlockPoint(np.ones(4), -np.ones(4)), QUAD_STATIONARITY
    elif kind == "quadratic-cli":  # lpam solve's start point at 32x32
        obj, X0, cfg = QuadraticToy(), TwoBlockPoint(np.ones(1024), np.ones(1024)), QUAD_CLI
    else:
        inst = generate_instance(InstanceSpec(height=8, width=8), 0)
        ext = IdentityExtractor(8, 8) if kind == "identity" else random_extractor(8, 8, seed=1)
        obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
        X0, cfg = obj.zero_filled(), LpamConfig(max_iter=10)
    return tuple(lpam_run(obj, X0, cfg)[0].trace)
