import argparse
import ast
import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lpam
from lpam import cli, fileio, metrics, random_extractor
from lpam.cli import main
from lpam.fileio import read_array, write_array
from lpam.operators import MAX_SIDE, InstanceSpec, KSpaceData, MaskedDft
from lpam.solver import LpamConfig

from tests.oracles import write_trace_csv_reference


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


def _strict_json(text: str):
    """``text`` parsed as standard JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_generate_solve_audit_pipeline(tmp_path, capsys):
    # every JSON document written, to a file or to stdout, is standard JSON
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = _strict_json((out / "manifest.json").read_text())
    assert 0.29 <= manifest["achieved_ratio"] <= 0.31
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    result = _strict_json((out / "metrics.json").read_text())
    assert result["exit_reason"] == "iteration_cap"
    assert result["recon"]["channel1"]["nmse"] < result["zero_filled"]["channel1"]["nmse"]
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    report = _strict_json((out / "report.json").read_text())
    assert report["passed"]
    for line in capsys.readouterr().out.splitlines():
        _strict_json(line)


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


def test_extractor_run_passes_its_audit(tmp_path):
    # a convolutional extractor's instance, solved and audited, the trace
    # also named explicitly
    weights = tmp_path / "weights.bin"
    fileio.write_weights(weights, random_extractor(16, 16).weights)
    objective = {"kind": "extractor", "weights_file": str(weights)}
    cfg = write_config(tmp_path / "cfg.json", objective=objective, solver={"max_iter": 20})
    out = tmp_path / "run"
    argv = ["--config", str(cfg), "--out", str(out)]
    for command in ("generate", "solve", "audit"):
        assert main([command, *argv]) == 0
    assert main(["audit", *argv, "--trace", str(out / "trace.csv")]) == 0
    assert json.loads((out / "report.json").read_text())["passed"]


# SHA-256 of the kspace1.arr that ``generate`` writes for a noisy 128^2
# instance at ratio 0.3 and seed 0, whose spokes end at the grid's edge.
# The low bits of an FFT may differ with another numpy, so the digest is
# compared on the numpy it was taken with
KSPACE1_PIN_NUMPY = "2.4.6"
KSPACE1_PIN = "346edc2433a56022e83118ac3ffcbeec72bbffafbf4267ca5daee5763774bf15"


def test_generate_writes_the_full_kspace_files(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        instance={"height": 128, "width": 128, "noise_std": 0.01, "seed": 0},
    )
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    mask = read_array(out / "mask.arr")
    for name in ("kspace1.arr", "kspace2.arr"):
        f = read_array(out / name)
        assert f.shape == mask.shape and f.dtype == np.complex128
        assert not np.any(f[~mask]) and np.all(f[mask] != 0)
    if np.__version__ == KSPACE1_PIN_NUMPY:
        assert hashlib.sha256((out / "kspace1.arr").read_bytes()).hexdigest() == KSPACE1_PIN


def test_kspace_entries_off_the_mask_leave_the_trace_unchanged(tmp_path):
    # only the values at the sampled frequencies are read from the files:
    # NaN, infinite and signalling NaN entries off the mask give the same
    # trace, byte for byte, and raise no warning
    cfg = write_config(tmp_path / "cfg.json")
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    assert main(["generate", "--config", str(cfg), "--out", str(clean)]) == 0
    shutil.copytree(clean, dirty)
    off = np.flatnonzero(~read_array(clean / "mask.arr"))
    signalling = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    values = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), signalling] * len(off)
    for name in ("kspace1.arr", "kspace2.arr"):
        f = read_array(dirty / name)
        for i, v in zip(off, values):
            f.flat[i] = v
        write_array(dirty / name, f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (clean, dirty):
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (dirty / "trace.csv").read_bytes() == (clean / "trace.csv").read_bytes()


def test_data_sampled_on_another_mask_exit3(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    load = cli._load_instance

    def load_with_other_mask(cfg, out):
        inst = load(cfg, out)
        mask = inst.dft.mask.copy()
        mask.flat[np.flatnonzero(mask)[-1]] = False
        dft = MaskedDft(mask)
        data = KSpaceData(dft, dft.sample(inst.kspace.f1), dft.sample(inst.kspace.f2))
        # an Instance holds one operator, its data's: an object holding
        # two stands in for the mismatch
        return SimpleNamespace(truth1=inst.truth1, truth2=inst.truth2, dft=inst.dft, kspace=data)

    monkeypatch.setattr(cli, "_load_instance", load_with_other_mask)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert "sampled on another mask" in capsys.readouterr().err


def test_generate_full_ratio_manifest(tmp_path):
    # every frequency sampled; at 256^2 the spoke search's high-ratio path
    # runs at a size where it finishes
    for side in (16, 256):
        instance = {"height": side, "width": side, "ratio": 1.0}
        cfg = write_config(tmp_path / "cfg.json", instance=instance)
        out = tmp_path / str(side)
        start = time.perf_counter()
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 60
        assert json.loads((out / "manifest.json").read_text())["achieved_ratio"] == 1.0
        assert read_array(out / "mask.arr").all()


def test_a_1024_instance_is_generated_solved_and_audited(tmp_path):
    # the set-up transforms run end to end in the per-thread DFT scratch,
    # each of whose two buffers is 16 MB at this size
    cfg = write_config(
        tmp_path / "cfg.json",
        instance={"height": 1024, "width": 1024, "ratio": 0.3},
        solver={"max_iter": 2},
    )
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    start = time.perf_counter()
    assert main(["generate", *argv]) == 0
    assert time.perf_counter() - start < 120
    n = 1024 * 1024
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["achieved_ratio"] == round(0.3 * n) / n
    assert main(["solve", *argv]) == 0
    assert main(["audit", *argv]) == 0


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


@pytest.mark.parametrize(
    "size, solver, result",
    [
        # every residual candidate overflows: the safeguard rejects each one
        (4, {"step_tau": [1e200], "max_iter": 50}, ("iteration_cap", 50)),
        # the benchmark's quadratic-cli job
        (
            32,
            {
                "eps0": 1.0,
                "gamma": 0.5,
                "eps_sigma": 1.0,
                "eps_tol": 1e-10,
                "step_alpha": [0.03],
                "step_tau": [0.03],
                "step_beta": [0.03],
                "step_gamma": [0.03],
                "max_iter": 2000,
            },
            ("tolerance_met", 914),
        ),
    ],
    ids=["overflow", "quadratic-cli"],
)
def test_quadratic_solve_writes_the_csv_writers_trace(tmp_path, size, solver, result):
    # byte for byte what the csv module writes for the rows read back
    raw = {
        "instance": {"height": size, "width": size},
        "objective": {"kind": "quadratic"},
        "solver": solver,
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_text(json.dumps(raw))
    argv = ["--config", str(cfg), "--out", str(out)]
    assert main(["solve", *argv]) == 0
    reason, iterations = result
    assert json.loads((out / "metrics.json").read_text()) == {
        "exit_reason": reason,
        "iterations": iterations,
    }
    write_trace_csv_reference(cli.read_trace_csv(out / "trace.csv"), tmp_path / "reference.csv")
    assert (out / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert main(["audit", *argv]) == 0


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


def _set_cell(column, value, row=3):
    """A trace edit that writes ``value`` into ``column`` of row ``row``."""

    def edit(lines):
        cells = lines[row - 1].split(",")
        cells[lines[0].split(",").index(column)] = value
        return lines[: row - 1] + [",".join(cells)] + lines[row:]

    return edit


@pytest.mark.parametrize(
    "corrupt, row",
    [
        (lambda lines: lines[:2] + ["garbage"] + lines[3:], 3),
        (lambda lines: lines[:2] + lines[3:], 3),  # k jumps from 0 to 2
        (lambda lines: lines[:3] + lines[2:], 4),  # k = 1 twice
        (_set_cell("eps", "0"), 3),
        (_set_cell("decrease", "nan"), 3),
        (_set_cell("grad_norm_pre", "nan"), 3),
        (_set_cell("reduced", "2"), 3),
        (_set_cell("phi", "1" * 140_000), 3),  # a 140,000-character cell
        (_set_cell("ls_count", "-7"), 3),
        (_set_cell("grad_norm", "-3"), 3),
        (_set_cell("grad_norm_pre", "-1e-300"), 3),
        (_set_cell("eps", '"0.5"'), 3),  # no writer quotes a cell
    ],
    ids=[
        "garbage",
        "gap",
        "duplicate",
        "eps-zero",
        "nan-decrease",
        "nan-grad-norm-pre",
        "reduced-2",
        "huge-field",
        "negative-ls-count",
        "negative-grad-norm",
        "negative-grad-norm-pre",
        "quoted-cell",
    ],
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
    # a refused cell is quoted in a few dozen characters, however long it is
    assert len(err) < len(str(out / "trace.csv")) + 120


def test_audit_without_events_passes(tmp_path):
    # reduction threshold far below any reachable gradient norm: no events
    cfg = write_config(tmp_path / "cfg.json", solver={"max_iter": 3, "eps_sigma": 1e-6})
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["solve", "--config", str(cfg), "--out", str(out)])
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["segments"] == []


def test_audit_refuses_a_trace_longer_than_max_iter(tmp_path, capsys):
    # no run under a config makes more rows than its solver.max_iter, so
    # such a trace is refused by name and no report is written; at exactly
    # max_iter rows the trace is audited as before
    cfg = write_config(tmp_path / "cfg.json", solver={"max_iter": 30})
    out = tmp_path / "run"
    argv = ["--config", str(cfg), "--out", str(out)]
    for command in ("generate", "solve", "audit"):
        assert main([command, *argv]) == 0
    assert len(cli.read_trace_csv(out / "trace.csv")) == 30
    report = (out / "report.json").read_bytes()
    (out / "report.json").unlink()
    capsys.readouterr()
    assert main(["audit", *argv, "--override", "solver.max_iter=3"]) == 3
    assert capsys.readouterr().err == (
        "error: the trace has 30 rows, more than solver.max_iter = 3\n"
    )
    assert not (out / "report.json").exists()
    assert main(["audit", *argv]) == 0
    assert (out / "report.json").read_bytes() == report


# old configs may still set "order", "audits" or "phantom", keys of deleted options
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("solver", "momentum", 0.9),
        ("solver", "order", "separable-first"),
        (None, "audits", {"decrease": True, "segments": True, "lmax": True}),
        ("instance", "phantom", "shared"),
    ],
    ids=["momentum", "order", "audits", "phantom"],
)
def test_unknown_config_key_rejected(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "cfg.json")
    raw = json.loads(cfg.read_text())
    (raw if section is None else raw[section])[key] = value
    cfg.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err


README = Path(__file__).parents[1] / "README.md"


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", ["generate", "solve", "audit", "metrics"])
def test_readme_documents_exactly_the_flags_each_subcommand_takes(command):
    # each subcommand's section lists its flags as the first cell of table
    # rows; --help, which every subcommand takes, is documented once
    assert set(_subcommands()) == {"generate", "solve", "audit", "metrics"}
    section = README.read_text().split(f"### `lpam {command}`\n", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `(--[a-z-]+)", section, re.M)
    taken = [
        flag
        for action in _subcommands()[command]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    ]
    assert sorted(documented) == sorted(taken)


def test_readme_documents_exactly_the_package_root():
    # every exported name imports and is in the manual, and every name the
    # manual's examples import from the package root is exported
    readme = README.read_text()
    for name in lpam.__all__:
        assert getattr(lpam, name) is not None
        assert re.search(rf"\b{name}\b", readme), name
    imported = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "lpam":
                imported.update(alias.name for alias in node.names)
    assert imported and imported <= set(lpam.__all__), imported - set(lpam.__all__)


def test_readme_config_loads(tmp_path):
    readme = README.read_text()
    example = readme.split("### Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.json"
    path.write_text(example)
    cfg = cli.load_config(str(path), [], None, None)
    assert cfg.instance.height == 32 and cfg.objective.kind == "identity"
    assert cfg.solver.step_tau[-1] == 0.1


def test_file_config_equals_the_same_specs_made_in_code(tmp_path):
    # the specs keep integers in float fields as floats, so a config read
    # from a file equals the one made in code, whether that gives ints or floats
    raw = {
        "instance": {"height": 8, "width": 8, "ratio": 1, "noise_std": 0, "seed": 3},
        "objective": {"kind": "identity", "lam": 1, "act_delta": 1},
        "solver": {"eps0": 1, "step_tau": [2, 1]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = cli.load_config(str(path), [], None, None)
    for number in (1.0, 1):
        made = (
            InstanceSpec(8, 8, ratio=number, noise_std=0 * number),
            cli.ObjectiveSpec(lam=number, act_delta=number),
            LpamConfig(eps0=number, step_tau=[2 * number, number]),
        )
        assert (cfg.instance, cfg.objective, cfg.solver) == made
        for spec in (cfg.instance, cfg.objective, cfg.solver) + made:
            for f in dataclasses.fields(spec):
                value = getattr(spec, f.name)
                if f.type == "float":
                    assert type(value) is float, f.name
                elif f.type == "Sequence[float]":
                    assert type(value) is tuple and {type(v) for v in value} == {float}, f.name
    # the dict a config is read from is left as it was
    assert cli.RunConfig.from_dict(raw) == cfg and raw["instance"]["seed"] == 3
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert type(manifest["requested_ratio"]) is float and manifest["requested_ratio"] == 1.0


def test_negative_lam_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", objective={"kind": "identity", "lam": -1.0})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    # so is an activation width that is not positive, for every kind, while
    # the config is read: an extractor's generate used to succeed
    for objective in (
        {"kind": "identity", "act_delta": 0.0},
        {"kind": "quadratic", "act_delta": -1.0},
        {"kind": "extractor", "weights_file": "weights.bin", "act_delta": 0.0},
    ):
        cfg = write_config(tmp_path / "cfg.json", objective=objective)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "objective.act_delta must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invalid_solver_value_is_refused_before_anything_is_written(tmp_path, capsys):
    # generate never reads the solver section, but checks it as solve does
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    argv = ["generate", "--config", str(cfg), "--out", str(out)]
    assert main([*argv, "--override", "solver.gamma=1.5"]) == 3
    assert capsys.readouterr().err == "error: gamma must lie in (0, 1)\n"
    assert not out.exists()


def test_a_refused_solve_creates_no_output_directory(tmp_path, capsys):
    # the instance is read before --out is made, as generate and audit do
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "fresh"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert str(out / "truth1.arr") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lam", np.inf, "objective.lam must be nonnegative and finite"),
        ("lam", np.nan, "objective.lam must be nonnegative and finite"),
        ("act_delta", np.inf, "objective.act_delta must be positive and finite"),
        ("act_delta", np.nan, "objective.act_delta must be positive and finite"),
        # a value of the wrong type is refused by the spec, for code as for a file
        ("lam", "a", "objective.lam must be a number"),
        ("lam", True, "objective.lam must be a number"),
        ("act_delta", True, "objective.act_delta must be a number"),
        pytest.param(
            "lam", 10**400, "objective.lam must be nonnegative and finite", id="lam-10**400"
        ),
        ("weights_file", 5, "objective.weights_file must be a string or None"),
    ],
)
def test_objective_spec_rejects_non_finite_values(field, value, message):
    for kind in ("identity", "extractor"):
        with pytest.raises(ValueError, match=message):
            cli.ObjectiveSpec(kind=kind, **{field: value})


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


@pytest.mark.parametrize(
    "data",
    [
        b'{"solver": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"solver": {"mode": "\xff"}}',
    ],
    ids=["100000-deep", "undecodable"],
)
def test_deep_or_undecodable_json_config_is_a_usage_error(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {cfg}: ")


def test_deep_json_override_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main([*argv, "--override", "solver.step_tau=" + "[" * 3000]) == 3
    assert capsys.readouterr().err.startswith("error: invalid JSON in override solver.step_tau: ")


def test_config_files_are_read_as_utf8_json(tmp_path):
    # json detects the encoding of a config's bytes itself: UTF-8 or UTF-16
    name = "poids-\u00e9.bin"
    raw = {"objective": {"kind": "quadratic", "weights_file": name}}
    for encoding in ("utf-8", "utf-16"):
        cfg = tmp_path / f"{encoding}.json"
        cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode(encoding))
        assert cli.load_config(str(cfg), [], None, None).objective.weights_file == name


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


@pytest.mark.parametrize("command", ["generate", "solve", "audit"])
def test_side_above_the_cap_is_a_usage_error(tmp_path, capsys, command):
    # refused while the config is read, before any array is made
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + ["--override", f"instance.width={MAX_SIDE + 1}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"at most {MAX_SIDE}" in err
    assert not out.exists()


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
    # the library's report as standard JSON, with either peak; an exact
    # reconstruction has an infinite PSNR, written as null
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["metrics", str(out / "truth1.arr"), str(out / "truth1.arr")]) == 0
    rep = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["ssim"] == 1.0 and rep["nmse"] == 0.0 and rep["psnr"] is None
    truth = read_array(out / "truth1.arr")
    write_array(out / "recon1.arr", 0.9 * truth)
    psnr = {}
    for squared_peak in (False, True):
        flag = ["--squared-peak"] if squared_peak else []
        assert main(["metrics", *flag, str(out / "recon1.arr"), str(out / "truth1.arr")]) == 0
        rep = _strict_json(capsys.readouterr().out)
        assert rep == metrics(0.9 * truth, truth, squared_peak).as_dict()
        psnr[squared_peak] = rep["psnr"]
    assert psnr[True] == pytest.approx(psnr[False] + 10 * np.log10(truth.max()))


def test_metrics_nonpositive_peak_exit3(tmp_path, capsys):
    # a ground truth of -1s has no positive peak to take the PSNR from
    recon, truth = tmp_path / "recon.arr", tmp_path / "truth.arr"
    write_array(recon, np.zeros((4, 4)))
    write_array(truth, -np.ones((4, 4)))
    assert main(["metrics", str(recon), str(truth)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive peak" in err and "-1.0" in err


def test_metrics_ssim_overflow_exit2(tmp_path, capsys):
    # a truth whose range squares past the float range has no finite SSIM
    # constants: a numeric failure, not a traceback
    truth = np.zeros((4, 4))
    truth[0, 0] = 1e300
    recon = truth.copy()
    recon[1, 1] = 1e-10
    write_array(tmp_path / "recon.arr", recon)
    write_array(tmp_path / "truth.arr", truth)
    assert main(["metrics", str(tmp_path / "recon.arr"), str(tmp_path / "truth.arr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SSIM" in err


def test_metrics_truth_norm_out_of_range_exit2(tmp_path, capsys):
    # a truth whose squared norm overflows has no NMSE: a numeric failure,
    # not nmse = 0
    truth = np.full((4, 4), 5e153)
    recon = truth.copy()
    recon[0, 0] = 4e153
    write_array(tmp_path / "recon.arr", recon)
    write_array(tmp_path / "truth.arr", truth)
    assert main(["metrics", str(tmp_path / "recon.arr"), str(tmp_path / "truth.arr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "squared norm of the ground truth" in err


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("name, dtype", [("truth1", "complex128"), ("mask", "float64")])
def test_instance_dtype_mismatch_is_a_usage_error(tmp_path, capsys, command, name, dtype):
    # a complex truth would lose its imaginary part, and a float mask of 0s
    # and 2.5s would be thresholded: both are refused before anything is written
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    if command == "audit":
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / f"{name}.arr"
    arr = read_array(path)
    write_array(path, arr + 1j if name == "truth1" else 2.5 * arr)
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    needs = {"truth1": "float64", "mask": "bool"}[name]
    assert f"has dtype {dtype}, but {name} must be {needs}" in err
    assert sorted(p.name for p in out.iterdir()) == before


def test_weights_without_output_channels_exit3(tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    fileio.write_weights(weights, [np.zeros((0, 2, 3, 3))])
    objective = {"kind": "extractor", "weights_file": str(weights)}
    cfg = write_config(tmp_path / "cfg.json", objective=objective)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: layer 0: kernel must have at least one output channel\n"


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_non_finite_weights_exit3(tmp_path, capsys, command):
    # refused when read, before the solver or an audit bound sees them
    weights = tmp_path / "weights.bin"
    objective = {"kind": "extractor", "weights_file": str(weights)}
    cfg = write_config(tmp_path / "cfg.json", objective=objective)
    out = tmp_path / "run"
    layers = [np.full((2, 2, 3, 3), 0.1), np.full((2, 2, 3, 3), 0.1)]
    fileio.write_weights(weights, layers)
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    if command == "audit":
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    before = sorted(p.name for p in out.iterdir())
    layers[1][1, 0, 2, 2] = np.nan  # in a layer after the first
    fileio.write_weights(weights, layers)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: non-finite kernel entry in weights file {weights}\n"
    assert sorted(p.name for p in out.iterdir()) == before


def test_metrics_huge_header_exit3(tmp_path, capsys):
    # a header claiming (2^31 - 1)^2 float64 entries must not reach read()
    path = tmp_path / "a.arr"
    write_array(path, np.ones((2, 2)))
    data = bytearray(path.read_bytes())
    data[12:20] = struct.pack("<2i", 2**31 - 1, 2**31 - 1)
    path.write_bytes(bytes(data))
    assert main(["metrics", str(path), str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 58.2 TiB")


@pytest.mark.parametrize("command, target", [("generate", "generate_instance"), ("solve", "build_objective")])
def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, command, target):
    # an instance too large to allocate exits 3, not 1 with a traceback;
    # the allocation failure is simulated, nothing large is allocated
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    if command == "solve":
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.setattr(cli, target, _raise_memory_error)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["solve", "--out", "o"],
        ["solve", "--config", "c.json"],
        ["solve", "--config", "c.json", "--out", "o", "--mode", "foo"],
        ["generate", "--config", "c.json", "--out", "o", "--seed", "abc"],
        ["metrics", "recon.arr"],
        # --mode sets solver.mode, which only solve reads, and --seed sets
        # instance.seed, which only generate reads
        ["generate", "--config", "c.json", "--out", "o", "--mode", "bcd"],
        ["audit", "--config", "c.json", "--out", "o", "--mode", "bcd"],
        ["solve", "--config", "c.json", "--out", "o", "--seed", "1"],
        ["audit", "--config", "c.json", "--out", "o", "--seed", "1"],
    ],
    ids=[
        "no-command", "unknown-command", "no-config", "no-out", "bad-mode", "bad-seed",
        "no-truth", "generate-mode", "audit-mode", "solve-seed", "audit-seed",
    ],
)
def test_malformed_command_line_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # parsed inside main, so argparse's own exit status 2 (reserved for
    # numeric failure) never escapes, and before anything is read or written
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.json")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: lpam") and "usage: lpam" in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: lpam" in capsys.readouterr().out


def test_repeated_calls_in_one_process(tmp_path, capsys):
    # main builds its parser once per process: one call's --override list,
    # flags or failure must not reach the next call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "instance": {"height": 4, "width": 4},
                "objective": {"kind": "quadratic"},
                "solver": {"max_iter": 5},
            }
        )
    )
    out = tmp_path / "run"
    solve = ["solve", "--config", str(cfg), "--out", str(out)]

    def iterations():
        return json.loads((out / "metrics.json").read_text())["iterations"]

    assert main([*solve, "--override", "solver.max_iter=3"]) == 0
    assert iterations() == 3
    assert main(solve) == 0
    assert iterations() == 5
    capsys.readouterr()
    assert main([*solve, "--mode", "foo"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: lpam") and "usage: lpam" in err
    traces = []
    for _ in range(2):
        assert main(solve) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1] and traces[0].count(b"\r\n") == 6
    assert cli._parser() is cli._parser()


# a UTF-8 locale, and the C locale with Python's UTF-8 mode and locale
# coercion both off, so that text-mode files would be read as ASCII
LOCALES = {
    "utf-8": {"PYTHONUTF8": "1"},
    "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
}


def test_every_file_reads_alike_in_every_locale(tmp_path, capsys):
    # lpam opens its files in binary mode, so the same input gives the same
    # exit code and the same stderr bytes whatever the locale, and a config
    # too deep to parse is refused as it is in this process
    quadratic = {
        "instance": {"height": 4, "width": 4},
        "objective": {"kind": "quadratic", "weights_file": "poids-\u00e9.bin"},
        "solver": {"max_iter": 5},
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_bytes(json.dumps(quadratic, ensure_ascii=False).encode())
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = (out / "trace.csv").read_bytes()
    bad_trace = tmp_path / "bad_trace.csv"
    at = data.index(b"\r\n0,") + 4  # row 2's eps cell
    bad_trace.write_bytes(data[:at] + b"\xe9" + data[at:])
    audit = ["audit", "--config", str(cfg), "--out", str(out), "--trace", str(bad_trace)]
    solve = ["solve", "--config", str(cfg), "--out", str(tmp_path / "again")]
    eps = data[at : data.index(b",", at)].decode()
    refused = f"error: malformed trace row 2 in {bad_trace}: eps '\\xe9{eps}' is not spelled"
    deep = tmp_path / "deep.json"
    deep.write_bytes(b'{"solver": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
    too_deep = ["solve", "--config", str(deep), "--out", str(tmp_path / "deep")]
    capsys.readouterr()
    assert main(too_deep) == 3
    too_deep_err = capsys.readouterr().err
    assert too_deep_err.startswith(f"error: invalid JSON in {deep}: ")
    cases = [
        (audit, 3, refused + " as a trace spells it\n"),
        (solve, 0, ""),
        (too_deep, 3, too_deep_err),
    ]
    keep = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
    path = str(Path(lpam.__file__).parents[1])  # where this lpam is imported from
    for argv, code, err in cases:
        cmd = [sys.executable, "-m", "lpam.cli", *argv]
        for locale in LOCALES.values():
            env = {**keep, **locale, "PYTHONPATH": path}
            proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (code, err.encode()), locale
