"""Spans around calls into each ``lpam`` module, recorded from outside the package.

A :class:`Tracer` replaces module-level names and class methods with
wrappers that append one span per call: (name, start_ns, end_ns,
parent index).  Names are patched where the caller looks them up, so
``lpam.solver.phi_eps`` is wrapped in the solver's namespace, not in
``lpam.core``.  Spans stay in memory until :meth:`Tracer.write`.

Call counts are the number of spans with a given name, so counts and
times are taken at the same boundaries.  The first component of a span
name is its layer, which is the ``lpam`` module that owns the function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, owner attribute or None, attribute, span name).  The owner is a
# class for methods; None patches the module-level name itself.
PATCH_POINTS = [
    ("lpam.cli", None, "main", "cli.main"),
    ("lpam.cli", None, "lpam_run", "solver.lpam_run"),
    ("lpam.cli", None, "write_trace_csv", "solver.write_trace_csv"),
    ("lpam.cli", None, "read_trace_csv", "solver.read_trace_csv"),
    ("lpam.cli", None, "audit_report", "diagnostics.audit_report"),
    ("lpam.cli", None, "metrics", "diagnostics.metrics"),
    ("lpam.solver", None, "lpam_run", "solver.lpam_run"),
    ("lpam.solver", None, "u_step", "solver.u_step"),
    ("lpam.solver", None, "safeguard_check", "solver.safeguard_check"),
    ("lpam.solver", None, "v_step_with_linesearch", "solver.v_step_with_linesearch"),
    ("lpam.solver", None, "write_trace_csv", "solver.write_trace_csv"),
    ("lpam.solver", None, "read_trace_csv", "solver.read_trace_csv"),
    ("lpam.solver", None, "phi_eps", "core.phi_eps"),
    ("lpam.solver", None, "grad_phi_eps", "core.grad_phi_eps"),
    ("lpam.diagnostics", None, "audit_report", "diagnostics.audit_report"),
    ("lpam.diagnostics", None, "metrics", "diagnostics.metrics"),
    ("lpam.fileio", None, "write_array", "fileio.write_array"),
    ("lpam.fileio", None, "read_array", "fileio.read_array"),
    ("lpam.objectives", None, "r_eps", "smoothing.r_eps"),
    ("lpam.objectives", None, "grad_r_eps", "smoothing.grad_r_eps"),
    ("lpam.operators", "MaskedDft", "forward", "operators.forward"),
    ("lpam.operators", "MaskedDft", "adjoint", "operators.adjoint"),
    ("lpam.operators", "MaskedDft", "fidelity", "operators.fidelity"),
    ("lpam.operators", "MaskedDft", "grad_fidelity", "operators.grad_fidelity"),
    ("lpam.extractor", "FeatureExtractor", "forward", "extractor.forward"),
    ("lpam.extractor", "FeatureExtractor", "vjp", "extractor.vjp"),
    ("lpam.extractor", "IdentityExtractor", "forward", "extractor.forward"),
    ("lpam.extractor", "IdentityExtractor", "vjp", "extractor.vjp"),
] + [
    ("lpam.objectives", cls, meth, f"objectives.{meth}")
    for cls in ("QuadraticToy", "JointRecovery")
    for meth in ("h1", "h2", "h", "grad_h1", "grad_h2", "grad1_h", "grad2_h")
]

SOLVE = "solver.lpam_run"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs span wrappers at :data:`PATCH_POINTS` for the life of a ``with`` block."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def __enter__(self) -> "Tracer":
        for modname, owner, attr, name in PATCH_POINTS:
            target = importlib.import_module(modname)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One CSV row per span: index, name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0},{t1},{parent}\n")


class SpanStats:
    """Counts, durations and self times of recorded spans, by span name.

    ``calls_in_solve`` and ``layer_self_ns`` only count spans inside a
    ``solver.lpam_run`` span (the run itself included); the other spans
    are the benchmark's own checks and, on the CLI workload, the CLI's
    calls around the solve.
    """

    def __init__(self, spans: list):
        child_ns = [0] * len(spans)
        in_solve = [False] * len(spans)
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                in_solve[i] = in_solve[parent]
            in_solve[i] = in_solve[i] or name == SOLVE
        self.calls, self.calls_in_solve = Counter(), Counter()
        self.total_ns, self.self_ns, self.layer_self_ns = Counter(), Counter(), Counter()
        for i, (name, t0, t1, _) in enumerate(spans):
            own = t1 - t0 - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            self.self_ns[name] += own
            if in_solve[i]:
                self.calls_in_solve[name] += 1
                self.layer_self_ns[layer_of(name)] += own
        self.solve_ns = self.total_ns[SOLVE]

    def mean_ms(self, name: str, self_only: bool = False) -> float:
        """Mean duration (or self time) per call of ``name``, 0 if never called."""
        table = self.self_ns if self_only else self.total_ns
        return table[name] / self.calls[name] / 1e6 if self.calls[name] else 0.0

    def self_share(self, name: str) -> float:
        """Self time of ``name`` over its total time, 0 if never called."""
        return self.self_ns[name] / self.total_ns[name] if self.total_ns[name] else 0.0

    def busy_share(self, layer: str) -> float:
        """The layer's self time inside solves over the solves' total time."""
        return self.layer_self_ns[layer] / self.solve_ns if self.solve_ns else 0.0
