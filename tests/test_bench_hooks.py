"""The names the benchmark in ``perfbench/`` imports, calls and patches.

The traced benchmark wraps functions and methods of the ``lpam`` modules
by name, its CLI workload times ``cli.load_config`` and
``cli.build_objective`` directly, and its micro-timings call single
operator and extractor methods; a rename that breaks any of these fails
here.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from lpam import cli, extractor, solver
from lpam.core import TwoBlockPoint
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance

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


def test_every_patch_point_is_in_its_owners_own_namespace(monkeypatch):
    # the tracer reads each name from its owner's own __dict__, so a method
    # only inherited, or gone, would raise a KeyError in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = []
    for modname, owner, attr, _ in tracing.PATCH_POINTS:
        target = importlib.import_module(modname)
        if owner is not None:
            target = vars(target).get(owner)
        if target is None or attr not in vars(target):
            missing.append(".".join(filter(None, (modname, owner, attr))))
    assert not missing, f"PATCH_POINTS names absent from their owners: {missing}"


@pytest.mark.parametrize("kind", ["identity", "cnn"])
def test_micro_timing_calls_run(kind):
    # each call perfbench/workloads.py's micro_timings makes, once
    inst = generate_instance(InstanceSpec(height=8, width=8), 0)
    if kind == "identity":
        ext = extractor.IdentityExtractor(8, 8)
    else:
        ext = extractor.random_extractor(8, 8, seed=1)
    obj = JointRecovery(inst.dft, inst.kspace, ext, 0.0093)
    dft, f1, X0 = obj.dft, obj.kspace.f1, obj.zero_filled()
    x = X0.x1
    results = [dft.forward(x), dft.adjoint(f1), dft.fidelity(x, f1), dft.grad_fidelity(x, f1)]
    w = ext.forward(X0)
    v = ext.vjp(X0, w)
    results += [w, v.x1, v.x2]
    if kind == "cnn":
        one = extractor.FeatureExtractor(ext.height, ext.width, ext.weights[:1], ext.act_delta)
        g = one.forward(X0)
        z = np.random.default_rng(0).standard_normal(g.T.shape) * ext.act_delta
        u = one.vjp(X0, g)
        results += [g, u.x1, u.x2, extractor.smoothed_relu(z, ext.act_delta)]
    assert all(np.isfinite(r).all() for r in results)
