import json
import struct

import numpy as np
import pytest

from lpam.cli import main
from lpam.fileio import read_array, write_array


def write_config(path, **extra):
    cfg = {
        "instance": {"height": 16, "width": 16, "mask_type": "radial", "ratio": 0.3, "seed": 5},
        "objective": {"kind": "identity", "lam": 0.0093},
        "solver": {"max_iter": 15},
    }
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


def test_generate_solve_audit_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.29 <= manifest["achieved_ratio"] <= 0.31
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["exit_reason"] == "iteration_cap"
    assert result["recon"]["channel1"]["nmse"] < result["zero_filled"]["channel1"]["nmse"]
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]


def test_end_to_end_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.csv", "recon1.arr", "recon2.arr", "kspace1.arr", "mask.arr"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_generate_full_ratio_manifest(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", instance={"ratio": 1.0})
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["achieved_ratio"] == 1.0


def test_solve_max_iter_zero_returns_zero_filled(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", solver={"max_iter": 0})
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["exit_reason"] == "iteration_cap" and result["iterations"] == 0
    recon = read_array(out / "recon1.arr")
    mask = read_array(out / "mask.arr")
    f1 = read_array(out / "kspace1.arr")
    zf = np.real(np.fft.ifft2(np.where(mask, f1, 0.0), norm="ortho"))
    assert np.array_equal(recon, zf)


def test_solve_quadratic_tolerance(tmp_path):
    cfg = {
        "objective": {"kind": "quadratic"},
        "instance": {"height": 4, "width": 4},
        "solver": {
            "eps0": 1.0,
            "gamma": 0.5,
            "eps_sigma": 1.0,
            "eps_tol": 1e-5,
            "step_alpha": [0.05],
            "step_tau": [0.05],
            "step_beta": [0.05],
            "step_gamma": [0.05],
            "max_iter": 2000,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["exit_reason"] == "tolerance_met"
    recon = read_array(out / "recon1.arr")
    assert np.max(np.abs(recon)) < 1e-5


def test_audit_corrupted_value_fails(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["solve", "--config", str(cfg), "--out", str(out)])
    lines = (out / "trace.csv").read_text().splitlines()
    parts = lines[3].split(",")
    parts[6] = "-1"  # claim the objective increased
    lines[3] = ",".join(parts)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["passed"]
    assert report["decrease_audit"]["failures"][0]["k"] == 2


@pytest.mark.parametrize(
    "corrupt, row",
    [
        (lambda lines: lines[:2] + ["garbage"] + lines[3:], 3),
        (lambda lines: lines[:2] + lines[3:], 3),  # k jumps from 0 to 2
        (lambda lines: lines[:3] + lines[2:], 4),  # k = 1 twice
    ],
    ids=["garbage", "gap", "duplicate"],
)
def test_audit_malformed_trace_exit3(tmp_path, capsys, corrupt, row):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["solve", "--config", str(cfg), "--out", str(out)])
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "trace.csv").write_text("\n".join(corrupt(lines)) + "\n")
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"row {row} " in err


def test_audit_without_events_passes(tmp_path):
    # reduction threshold far below any reachable gradient norm: no events
    cfg = write_config(tmp_path / "cfg.json", solver={"max_iter": 3, "eps_sigma": 1e-6})
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["solve", "--config", str(cfg), "--out", str(out)])
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["segments"] == []


# old configs may still set "order", the key of a deleted update-order option
@pytest.mark.parametrize(
    "key, value", [("momentum", 0.9), ("order", "separable-first")], ids=["momentum", "order"]
)
def test_unknown_config_key_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json")
    raw = json.loads(cfg.read_text())
    raw["solver"][key] = value
    cfg.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err


def test_negative_lam_rejected(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", objective={"kind": "identity", "lam": -1.0})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_missing_config_exit3(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 3
    assert "none.json" in capsys.readouterr().err


def test_override_and_mode_flags(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert (
        main(
            [
                "solve",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--mode",
                "bcd",
                "--override",
                "solver.max_iter=3",
            ]
        )
        == 0
    )
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 4  # header + 3 iterations
    assert all(line.split(",")[4] == "v" for line in trace[1:])


def test_bad_override_rejected(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert (
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--override", "oops"])
        == 3
    )


def test_nan_override_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    argv = ["solve", "--config", str(cfg), "--out", str(out), "--override", "solver.eps0=NaN"]
    assert main(argv) == 3
    assert "eps0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize(
    "overrides, shape",
    [(["instance.height=8"], (8, 16)), (["instance.height=8", "instance.width=32"], (8, 32))],
)
def test_instance_shape_mismatch_is_a_usage_error(tmp_path, capsys, command, overrides, shape):
    cfg = write_config(tmp_path / "cfg.json")
    ref, out = tmp_path / "ref", tmp_path / "run"
    for d in (ref, out):
        assert main(["generate", "--config", str(cfg), "--out", str(d)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(ref)]) == 0
    before = sorted(p.name for p in out.iterdir())
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "audit":
        argv += ["--trace", str(ref / "trace.csv")]
    for o in overrides:
        argv += ["--override", o]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str((16, 16)) in err and str(shape) in err
    assert sorted(p.name for p in out.iterdir()) == before


QUADRATIC = {"objective": {"kind": "quadratic"}, "instance": {"height": 4, "width": 4}}


@pytest.mark.parametrize(
    "override",
    [
        "instance=3",
        "audits=[1]",
        "solver.step_alpha=0.5",
        'solver.max_iter="abc"',
        "solver.max_iter=1.5",
        "solver.max_iter=true",
        'solver.eps0="abc"',
        "solver.gamma=null",
        "instance.height=[1]",
        "solver.step_alpha=[[1]]",
        "audits.decrease=[1]",
    ],
)
def test_mistyped_config_value_is_a_usage_error(tmp_path, capsys, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(QUADRATIC))
    argv = ["solve", "--config", str(path), "--out", str(tmp_path / "o"), "--override", override]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_seed_flag_changes_instance(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(cfg), "--out", str(a), "--seed", "1"])
    main(["generate", "--config", str(cfg), "--out", str(b), "--seed", "2"])
    assert (a / "truth1.arr").read_bytes() != (b / "truth1.arr").read_bytes()


def test_metrics_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["metrics", str(out / "truth1.arr"), str(out / "truth1.arr")]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["ssim"] == 1.0 and rep["nmse"] == 0.0


def test_metrics_huge_header_exit3(tmp_path, capsys):
    # a header claiming (2^31 - 1)^2 float64 entries must not reach read()
    path = tmp_path / "a.arr"
    write_array(path, np.ones((2, 2)))
    data = bytearray(path.read_bytes())
    data[12:20] = struct.pack("<2i", 2**31 - 1, 2**31 - 1)
    path.write_bytes(bytes(data))
    assert main(["metrics", str(path), str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
