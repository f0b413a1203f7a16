"""The names the benchmark in ``perfbench/`` imports, calls and patches.

The traced benchmark wraps functions and methods of the ``lpam`` modules
by name, and its CLI workload times ``cli.load_config`` and
``cli.build_objective`` directly; a rename that breaks either fails here.
"""

import json
from pathlib import Path

import numpy as np

from lpam import cli, solver
from lpam.core import TwoBlockPoint
from lpam.objectives import QuadraticToy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_a_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = solver.lpam_run
    cfg = solver.LpamConfig(eps0=1.0, step_alpha=(0.05,), step_tau=(0.05,), max_iter=3)
    with tracing.Tracer() as tracer:
        state, _ = solver.lpam_run(QuadraticToy(), TwoBlockPoint(np.ones(2), -np.ones(2)), cfg)
    assert solver.lpam_run is original
    stats = tracing.SpanStats(tracer.spans)
    assert stats.calls[tracing.SOLVE] == 1
    assert stats.calls_in_solve["core.grad_phi_eps"] >= state.k


def test_cli_setup_hooks(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"objective": {"kind": "quadratic"}}))
    obj = cli.build_objective(cli.load_config(str(path), [], None, None), None)
    assert isinstance(obj, QuadraticToy)
