"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single PASS line on success; pytest handles the
FAIL side through the assertions.
"""

import dataclasses
import json
import time

import numpy as np

from lpam.core import TwoBlockPoint, grad_phi_eps
from lpam.cli import main as cli_main
from lpam.diagnostics import audit_report, lmax_bound, metrics
from lpam.extractor import IdentityExtractor, random_extractor
from lpam.fileio import read_array, read_weights, write_array, write_weights
from lpam.objectives import JointRecovery, QuadraticToy
from lpam.operators import InstanceSpec, generate_instance, uniform_mask
from lpam.solver import EXIT_TOLERANCE, LpamConfig, lpam_run

from tests.oracles import check_c3, finite_difference_grad, half_count_m

SIZE = 6

QUAD_CONFIG = LpamConfig(
    eps0=1.0,
    gamma=0.5,
    eps_sigma=1.0,
    eps_tol=1e-5,
    step_alpha=(0.03,),
    step_tau=(0.03,),
    step_beta=(0.03,),
    step_gamma=(0.03,),
    max_iter=2000,
)


def _objectives():
    inst = generate_instance(InstanceSpec(height=SIZE, width=SIZE), 0)
    identity = JointRecovery(
        inst.dft, inst.kspace, IdentityExtractor(SIZE, SIZE), 0.0093
    )
    cnn = JointRecovery(
        inst.dft,
        inst.kspace,
        random_extractor(SIZE, SIZE, num_layers=4, channels=8, seed=1),
        0.0093,
    )
    return [("quadratic", QuadraticToy()), ("identity", identity), ("cnn", cnn)]


def test_acceptance_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    n = SIZE * SIZE
    for name, obj in _objectives():
        for _ in range(100):
            X = TwoBlockPoint(rng.normal(size=n), rng.normal(size=n))
            eps = float(rng.uniform(0.05, 0.5))
            g = grad_phi_eps(obj, X, eps)
            fd = finite_difference_grad(obj, X, eps)
            num = np.sqrt(
                np.sum((g.x1 - fd.x1) ** 2) + np.sum((g.x2 - fd.x2) ** 2)
            )
            rel = num / max(1.0, g.norm())
            assert rel < 1e-5, f"{name}: relative gradient error {rel}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS acceptance 1: gradients match finite differences ({elapsed:.1f}s)")


def test_acceptance_2_near_monotonicity():
    t0 = time.monotonic()
    inst = generate_instance(InstanceSpec(height=8, width=8), 2)
    obj = JointRecovery(inst.dft, inst.kspace, IdentityExtractor(8, 8), 0.0093)
    m = half_count_m(obj.extractor.num_groups, obj.lam)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        X = TwoBlockPoint(rng.normal(size=64), rng.normal(size=64))
        eps = float(rng.uniform(1e-4, 1.0))
        delta = float(rng.uniform(eps, 2.0))
        assert check_c3(obj, m, X, eps, delta)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS acceptance 2: smoothing near-monotonicity on 1000 draws ({elapsed:.1f}s)")


def _bundled_runs():
    runs = []
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, _ = lpam_run(QuadraticToy(), X0, QUAD_CONFIG)
    runs.append((QuadraticToy(), QUAD_CONFIG, state))
    for name, obj in _objectives()[1:]:
        cfg = LpamConfig(max_iter=60)
        state, _ = lpam_run(obj, obj.zero_filled(), cfg)
        runs.append((obj, cfg, state))
    return runs


def test_acceptance_3_monotone_decrease():
    for obj, cfg, state in _bundled_runs():
        for r in state.trace:
            if r.grad_norm_pre > 1e-12:
                assert r.decrease > 0.0, f"no decrease at iteration {r.k}"
        report = audit_report(state.trace, cfg, obj.lipschitz_estimate)
        failures = report["decrease_audit"]["failures"]
        assert not failures, failures
    print("PASS acceptance 3: objective decreases and decrease audit holds on all bundled runs")


def test_acceptance_4_line_search_bound():
    violations = 0
    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X0 = TwoBlockPoint(rng.normal(size=4), rng.normal(size=4))
        state, _ = lpam_run(QuadraticToy(), X0, QUAD_CONFIG)
        for r in state.trace:
            if r.branch != "v":
                continue
            cap = lmax_bound(QUAD_CONFIG, 4.0)
            checked += 1
            violations += r.ls_count > cap
    for seed in range(10):
        inst = generate_instance(InstanceSpec(height=8, width=8), seed)
        obj = JointRecovery(inst.dft, inst.kspace, IdentityExtractor(8, 8), 0.0093)
        cfg = LpamConfig(max_iter=40)
        state, _ = lpam_run(obj, obj.zero_filled(), cfg)
        for r in state.trace:
            if r.branch != "v":
                continue
            cap = lmax_bound(cfg, obj.lipschitz_estimate(r.eps))
            checked += 1
            violations += r.ls_count > cap
    assert checked > 0
    assert violations == 0
    print(f"PASS acceptance 4: backtrack counts within bound on {checked} fallback steps, 20 runs")


def test_acceptance_5_segment_bound():
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X0 = TwoBlockPoint(rng.normal(size=4), rng.normal(size=4))
        state, _ = lpam_run(QuadraticToy(), X0, QUAD_CONFIG)
        reports = audit_report(
            state.trace, QUAD_CONFIG, QuadraticToy().lipschitz_estimate
        )["segments"]
        assert reports
        for rep in reports:
            assert rep["ok"], f"seed {seed} segment {rep['l']}: {rep['observed']} > {rep['bound']}"
            total += 1
    print(f"PASS acceptance 5: all {total} segment lengths within the complexity bound")


def test_acceptance_6_stationarity():
    X0 = TwoBlockPoint(np.ones(4), -np.ones(4))
    state, reason = lpam_run(QuadraticToy(), X0, QUAD_CONFIG)
    assert reason == EXIT_TOLERANCE
    events = [r for r in state.trace if r.reduced]
    assert len(events) >= 3
    limit = QUAD_CONFIG.gamma + 0.05
    for a, b in zip(events, events[1:]):
        ratio = b.grad_norm / a.grad_norm
        assert ratio <= limit, f"event gradient ratio {ratio} > {limit}"
    assert state.X.norm() < 1e-5
    print(
        f"PASS acceptance 6: {len(events)} reduction events decay geometrically, "
        f"final point within 1e-5 of the minimizer"
    )


def test_acceptance_7_recovery_quality():
    t0 = time.monotonic()
    inst = generate_instance(InstanceSpec(height=32, width=32, ratio=0.3), 0)
    obj = JointRecovery(inst.dft, inst.kspace, IdentityExtractor(32, 32), 0.0093)
    X0 = obj.zero_filled()
    zf = [
        metrics(X0.x1.reshape(32, 32), inst.truth1).nmse,
        metrics(X0.x2.reshape(32, 32), inst.truth2).nmse,
    ]
    cfg = LpamConfig(max_iter=200)
    sa, _ = lpam_run(obj, X0, cfg)
    sb, _ = lpam_run(obj, X0, dataclasses.replace(cfg, mode="bcd"))
    lp = [
        metrics(sa.X.x1.reshape(32, 32), inst.truth1).nmse,
        metrics(sa.X.x2.reshape(32, 32), inst.truth2).nmse,
    ]
    bc = [
        metrics(sb.X.x1.reshape(32, 32), inst.truth1).nmse,
        metrics(sb.X.x2.reshape(32, 32), inst.truth2).nmse,
    ]
    for ch in range(2):
        assert lp[ch] <= 0.5 * zf[ch], f"channel {ch + 1}: {lp[ch]} vs baseline {zf[ch]}"
        assert lp[ch] <= 1.1 * bc[ch], f"channel {ch + 1}: {lp[ch]} vs fallback-only {bc[ch]}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"PASS acceptance 7: NMSE {lp[0]:.4f}/{lp[1]:.4f} vs zero-filled "
        f"{zf[0]:.4f}/{zf[1]:.4f} ({elapsed:.1f}s)"
    )


def test_acceptance_8_operator_adjoints():
    rng = np.random.default_rng(12)
    inst = generate_instance(InstanceSpec(height=8, width=8), 3)
    op = inst.dft
    for _ in range(50):
        x = rng.normal(size=64)
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lhs = np.real(np.vdot(op.forward(x), np.where(op.mask, y, 0.0)))
        rhs = float(np.dot(x, op.adjoint(y)))
        assert abs(lhs - rhs) < 1e-8
    ext = random_extractor(SIZE, SIZE, num_layers=3, channels=4, seed=5)
    n = SIZE * SIZE
    X = TwoBlockPoint(rng.normal(size=n), rng.normal(size=n))
    h = 1e-6
    for _ in range(50):
        d1, d2 = rng.normal(size=n), rng.normal(size=n)
        w = rng.normal(size=(4, n))
        Xp = TwoBlockPoint(X.x1 + h * d1, X.x2 + h * d2)
        Xm = TwoBlockPoint(X.x1 - h * d1, X.x2 - h * d2)
        jd = (ext.forward(Xp) - ext.forward(Xm)) / (2 * h)
        g = ext.vjp(X, w)
        lhs = float(np.sum(jd * w))
        rhs = float(np.dot(d1, g.x1) + np.dot(d2, g.x2))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
    print("PASS acceptance 8: measurement and extractor adjoint identities on 50 draws each")


def test_acceptance_9_metrics_sanity():
    y = np.array([[1.0, 0.2], [0.3, 0.0]])
    rep = metrics(y, y)
    assert rep.psnr == np.inf and rep.ssim == 1.0
    assert rep.nmse == 0.0 and rep.rmse == 0.0
    rep = metrics(np.zeros_like(y), y)
    assert rep.nmse == 1.0
    y = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = np.array([[0.5, 0.0], [0.0, 0.0]])
    rep = metrics(x, y)
    assert abs(rep.rmse - 0.25) < 1e-10
    assert abs(rep.nmse - 0.25) < 1e-10
    assert abs(rep.psnr - 10 * np.log10(1.0 / 0.0625)) < 1e-10
    print("PASS acceptance 9: image metric hand cases exact to 1e-10")


def test_acceptance_10_determinism_and_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "instance": {"height": 16, "width": 16, "ratio": 0.3, "seed": 9},
                "objective": {"kind": "identity", "lam": 0.0093},
                "solver": {"max_iter": 20},
            }
        )
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.csv", "recon1.arr", "recon2.arr", "truth1.arr", "kspace2.arr"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    rng = np.random.default_rng(13)
    weights = [rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(2, 3, 1, 1))]
    wpath = tmp_path / "w.bin"
    write_weights(wpath, weights)
    for a, b in zip(weights, read_weights(wpath)):
        assert np.array_equal(a, b)
    for arr in (
        rng.normal(size=(4, 5)),
        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
        uniform_mask(4, 4, 0.5, rng),
    ):
        path = tmp_path / "arr.bin"
        write_array(path, arr)
        assert np.array_equal(read_array(path), arr)
    print("PASS acceptance 10: byte-identical reruns and bit-exact file round trips")
