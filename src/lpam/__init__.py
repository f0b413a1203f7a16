"""Two-block smoothing solver for nonconvex nonsmooth objectives.

A residual update with a safeguard falls back to a line-searched
Gauss-Seidel step; the smoothing parameter is driven to zero on a
gradient schedule.  Ships a quadratic toy objective and a joint
two-channel signal recovery model (masked-DFT fidelity plus a smoothed
l2,1 joint-feature regularizer), with trace-based convergence audits,
image quality metrics and a CLI.

The package root holds the entry points README documents; solver
internals and kernels are imported from their own modules.
"""

from .core import EvaluatedPoint, NumericError, SmoothedObjective, TwoBlockPoint
from .diagnostics import MetricsReport, audit_report, metrics
from .extractor import FeatureExtractor, IdentityExtractor, random_extractor
from .fileio import IterateRecord, read_trace_csv, write_trace_csv
from .objectives import JointRecovery, QuadraticToy
from .operators import Instance, InstanceSpec, KSpaceData, MaskedDft, generate_instance
from .solver import (
    EXIT_ITERATION_CAP,
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    EXIT_TOLERANCE,
    LpamConfig,
    SolverState,
    lpam_run,
)

__version__ = "0.1.0"

__all__ = [
    # the solver
    "LpamConfig",
    "lpam_run",
    "SolverState",
    "IterateRecord",
    "EXIT_TOLERANCE",
    "EXIT_ITERATION_CAP",
    "EXIT_NUMERIC",
    "EXIT_LINE_SEARCH",
    "read_trace_csv",
    "write_trace_csv",
    # objectives and the objective contract
    "QuadraticToy",
    "JointRecovery",
    "SmoothedObjective",
    "EvaluatedPoint",
    "TwoBlockPoint",
    # feature extractors
    "IdentityExtractor",
    "FeatureExtractor",
    "random_extractor",
    # instances
    "InstanceSpec",
    "Instance",
    "MaskedDft",
    "KSpaceData",
    "generate_instance",
    # audit and metrics
    "audit_report",
    "metrics",
    "MetricsReport",
    "NumericError",
]
