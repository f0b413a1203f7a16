"""Two-block smoothing solver for nonconvex nonsmooth objectives.

A residual update with a safeguard falls back to a line-searched
Gauss-Seidel step; the smoothing parameter is driven to zero on a
gradient schedule.  Ships a quadratic toy objective and a joint
two-channel signal recovery model (masked-DFT fidelity plus a smoothed
l2,1 joint-feature regularizer), with trace-based convergence audits,
image quality metrics and a CLI.
"""

from .core import (
    EvaluatedPoint,
    NumericError,
    SmoothedObjective,
    TwoBlockPoint,
    grad_phi_eps,
    phi_eps,
)
from .diagnostics import MetricsReport, audit_report, lmax_bound, metrics
from .extractor import (
    FeatureExtractor,
    IdentityExtractor,
    group_norms,
    random_extractor,
    smoothed_relu,
)
from .objectives import JointRecovery, QuadraticToy, grad_r_eps, r_eps
from .operators import (
    Instance,
    InstanceSpec,
    KSpaceData,
    MaskedDft,
    generate_instance,
    radial_mask,
    shared_structure_phantom,
    uniform_mask,
)
from .solver import (
    EXIT_ITERATION_CAP,
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    EXIT_TOLERANCE,
    IterateRecord,
    LineSearchError,
    LpamConfig,
    SolverState,
    lpam_run,
    read_trace_csv,
    safeguard_check,
    u_step,
    v_step_with_linesearch,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "EvaluatedPoint",
    "NumericError",
    "SmoothedObjective",
    "TwoBlockPoint",
    "grad_phi_eps",
    "phi_eps",
    "MetricsReport",
    "audit_report",
    "lmax_bound",
    "metrics",
    "FeatureExtractor",
    "IdentityExtractor",
    "random_extractor",
    "smoothed_relu",
    "JointRecovery",
    "QuadraticToy",
    "Instance",
    "InstanceSpec",
    "KSpaceData",
    "MaskedDft",
    "generate_instance",
    "radial_mask",
    "shared_structure_phantom",
    "uniform_mask",
    "grad_r_eps",
    "group_norms",
    "r_eps",
    "EXIT_ITERATION_CAP",
    "EXIT_LINE_SEARCH",
    "EXIT_NUMERIC",
    "EXIT_TOLERANCE",
    "IterateRecord",
    "LineSearchError",
    "LpamConfig",
    "SolverState",
    "lpam_run",
    "read_trace_csv",
    "safeguard_check",
    "u_step",
    "v_step_with_linesearch",
    "write_trace_csv",
]
