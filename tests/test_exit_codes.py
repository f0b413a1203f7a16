"""Property tests of the CLI's exit-code contract.

Whatever the config overrides or the bytes of its input files, every
command returns 0, 1, 2 or 3 without raising, and 1 only when ``audit``
ran and its report failed.  Instances are 8x8 and drawn integers stay
small, apart from image sides above the size cap, which are refused
before anything is allocated, so no case allocates a large instance.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lpam import cli, diagnostics, fileio
from lpam.operators import MAX_SIDE
from lpam.solver import IterateRecord

CORRUPTIBLE = [f"{name}.arr" for name in cli._INSTANCE_FILES] + [
    "recon1.arr",
    "weights.bin",
    "trace.csv",
]


def run(command: str, out: Path, *options: str) -> int:
    """One CLI command on ``out``; its exit code, checked against the contract.

    A failure (exit 2 or 3) names itself on stderr with a line starting
    ``error:``.  Warnings are errors in the test suite, so a command that
    lets one of numpy's floating-point warnings through fails here too.
    """
    if command == "metrics":
        argv = ["metrics", str(out / "recon1.arr"), str(out / "truth1.arr")]
    else:
        argv = [command, "--out", str(out), *options]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().startswith("error:")
    if code == 1:
        assert command == "audit"
        assert json.loads((out / "report.json").read_text())["passed"] is False
    return code


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """A generated and solved 8x8 extractor instance, with its config."""
    root = tmp_path_factory.mktemp("base")
    rng = np.random.default_rng(0)
    fileio.write_weights(
        root / "weights.bin",
        [0.3 * rng.normal(size=(3, 2, 3, 3)), 0.3 * rng.normal(size=(2, 3, 3, 3))],
    )
    raw = {
        "instance": {"height": 8, "width": 8, "seed": 1},
        "objective": {"kind": "extractor", "weights_file": str(root / "weights.bin")},
        "solver": {"max_iter": 6},
    }
    (root / "run.json").write_text(json.dumps(raw))
    config = ["--config", str(root / "run.json")]
    assert run("generate", root, *config) == 0
    assert run("solve", root, *config) == 0
    return root


def _copy(base: Path, tmp: str) -> Path:
    """A copy of the base run in ``tmp``, its config naming the copied weights."""
    out = Path(tmp) / "run"
    shutil.copytree(base, out)
    raw = json.loads((out / "run.json").read_text())
    raw["objective"]["weights_file"] = str(out / "weights.bin")
    (out / "run.json").write_text(json.dumps(raw))
    return out


KEYS = [f"{section}.{key}" for section, keys in cli._SCHEMA.items() for key in keys]
NAMES = ["lpam", "bcd", "radial", "uniform", "quadratic", "identity", "extractor"]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(NAMES)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# every schema key, every section, and an unknown key
override_keys = st.sampled_from(KEYS + list(cli._SCHEMA) + ["solver.momentum"])
# an image side above the cap, which must be refused before any allocation
oversized_sides = st.tuples(
    st.sampled_from(["instance.height", "instance.width"]),
    st.integers(MAX_SIDE + 1, 2**62),
)


@given(st.lists(st.tuples(override_keys, json_values) | oversized_sides, max_size=4))
@example([("instance.height", MAX_SIDE + 1)])
@example([("instance.width", 2**40), ("instance.height", 2**40)])
@example([("instance.phantom", "shared")])
@example([("audits", {"decrease": False})])
@example([("objective.kind", "identity"), ("solver.eps0", 1e300)])
@example([("objective.lam", 1e308)])  # the solve ends in numeric_error
def test_config_overrides_keep_the_exit_code_contract(base_run, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        options = ["--config", str(out / "run.json")]
        for key, value in overrides:
            options += ["--override", f"{key}={json.dumps(value)}"]
        for command in ("generate", "solve", "audit"):
            run(command, out, *options)


@given(
    st.sampled_from(CORRUPTIBLE),
    st.integers(min_value=0),
    st.one_of(st.integers(0, 255), st.none()),  # None: truncate at the position
)
@example("mask.arr", -1, 0x60)  # the last mask byte neither 0 nor 1
def test_corrupted_files_keep_the_exit_code_contract(base_run, name, pos, byte):
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        path = out / name
        data = bytearray(path.read_bytes())
        pos %= len(data)
        if byte is None:
            del data[pos:]
        else:
            data[pos] = byte
        path.write_bytes(bytes(data))
        config = ["--config", str(out / "run.json")]
        run("metrics", out)
        run("audit", out, *config)
        run("solve", out, *config)
        run("audit", out, *config)


def test_mask_byte_other_than_0_or_1_is_a_usage_error(base_run):
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        data = bytearray((out / "mask.arr").read_bytes())
        data[-1] = 0x60
        (out / "mask.arr").write_bytes(bytes(data))
        assert run("solve", out, "--config", str(out / "run.json")) == 3


@pytest.mark.parametrize("name, command", [("recon1", "metrics"), ("kspace1", "solve")])
def test_overflowing_entry_is_reported_without_warnings(base_run, name, command):
    # an entry of 1e158 overflows when squared: a numeric failure of input
    # that parsed, so the command exits 2 with its one-line message, and
    # numpy's overflow warning never surfaces
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        arr = fileio.read_array(out / f"{name}.arr")
        arr[0, 0] = 1e158
        fileio.write_array(out / f"{name}.arr", arr)
        if command == "metrics":
            argv = ["metrics", str(out / "recon1.arr"), str(out / "truth1.arr")]
        else:
            argv = [command, "--out", str(out), "--config", str(out / "run.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
    assert code == 2
    assert caught == []
    assert err.getvalue() == "error: squared error is not finite: inf\n"


TRACE_COLUMNS = [f.name for f in dataclasses.fields(IterateRecord)]
cells = st.one_of(
    st.floats().map(repr),
    st.integers(-2, 70).map(str),
    st.sampled_from(["u", "v", "0", "1", "", "nan", "-inf", "1e-320", "1e308"]),
    st.text(max_size=6),
)


# the base trace has 6 rows
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(TRACE_COLUMNS), cells), min_size=1, max_size=3
    )
)
@example([(1, "eps", "0")])
@example([(1, "decrease", "nan")])
@example([(1, "grad_norm_pre", "nan")])
@example([(1, "phi", "1" * 140_000)])
@example([(1, "branch", "v"), (1, "eps", "1e-320")])
def test_edited_trace_keeps_the_exit_code_contract(base_run, edits):
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        lines = (out / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        for row, column, cell in edits:
            parts = lines[1 + row].split(",")
            parts[header.index(column)] = cell
            lines[1 + row] = ",".join(parts)
        (out / "trace.csv").write_text("\n".join(lines) + "\n")
        run("audit", out, "--config", str(out / "run.json"))


# the base trace reduces eps at every row, so row 1 opens and closes a
# segment and row 5, made unreduced, opens one that never closes
@pytest.mark.parametrize(
    "row, edits",
    [
        # the Lipschitz estimate is inf on a fallback row, whose lmax bound reads it
        (5, {"eps": "1e-320", "branch": "v", "reduced": "0"}),
        # and on a residual row, where only the decrease audit reads it
        (5, {"eps": "1e-320", "branch": "u", "reduced": "0"}),
        # the estimate is finite, but the line-search rate, and so the
        # segment bound, overflow to inf without raising
        (1, {"eps": "1e-153"}),
        # the reduction threshold eps_sigma * gamma * eps overflows to inf,
        # which would make the segment bound 0 and fail the audit
        (1, {"eps": "1e305"}),
        # the threshold is finite, but squaring it in the segment bound raises
        (1, {"eps": "1e150"}),
    ],
)
def test_audit_bound_out_of_float_range_exits_2(base_run, row, edits):
    what = {
        "1e-320": "Lipschitz estimate",
        "1e-153": "decrease rate",
        "1e305": "reduction threshold",
        "1e150": "segment bound",
    }[edits["eps"]]
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy(base_run, tmp)
        lines = (out / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        parts = lines[1 + row].split(",")
        assert parts[header.index("reduced")] == "1"
        for column, cell in edits.items():
            parts[header.index(column)] = cell
        lines[1 + row] = ",".join(parts)
        (out / "trace.csv").write_text("\n".join(lines) + "\n")
        if edits == {"eps": "1e-153"}:
            cfg = cli.load_config(str(out / "run.json"), [], None, None)
            L = cli.build_objective(cfg, cli._load_instance(cfg, out)).lipschitz_estimate(1e-153)
            assert L**2 < math.inf and diagnostics._rates(cfg.solver, L)[1] == math.inf
        argv = ["audit", "--out", str(out), "--config", str(out / "run.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2
        assert err.getvalue().startswith(f"error: audit {what} at k = {row}, ")
        assert f"k = {row}, eps = {float(edits['eps'])}" in err.getvalue()
        assert not (out / "report.json").exists()


def test_eps_underflow_exits_2_with_its_trace(tmp_path):
    # eps shrinks a thousandfold per iteration until it underflows to 0: a
    # numeric failure of the run, reported with the rows made before it
    raw = {
        "instance": {"height": 4, "width": 4},
        "objective": {"kind": "quadratic"},
        "solver": {"eps0": 1, "gamma": 0.001, "eps_sigma": 1e300, "max_iter": 400},
    }
    (tmp_path / "run.json").write_text(json.dumps(raw))
    out = tmp_path / "run"
    err = io.StringIO()
    argv = ["solve", "--out", str(out), "--config", str(tmp_path / "run.json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 2
    result = json.loads((out / "metrics.json").read_text())
    assert result["exit_reason"] == "numeric_error" and 0 < result["iterations"] < 400
    assert err.getvalue() == (
        f"error: solver ended in numeric_error after {result['iterations']} iterations\n"
    )
    trace = cli.read_trace_csv(out / "trace.csv")
    assert len(trace) == result["iterations"]


@pytest.mark.parametrize(
    "command, seed",
    [("generate", ["--seed", "-1"]), ("solve", ["--override", "instance.seed=-1"])],
    ids=["generate", "solve"],
)
def test_negative_seed_is_refused_by_name_before_anything_is_written(tmp_path, command, seed):
    # numpy's own refusal of a negative seed names no config key; only
    # generate takes --seed, and solve still checks the config's seed
    raw = {"instance": {"height": 4, "width": 4}, "objective": {"kind": "quadratic"}}
    (tmp_path / "run.json").write_text(json.dumps(raw))
    out = tmp_path / "run"
    err = io.StringIO()
    argv = [command, "--out", str(out), "--config", str(tmp_path / "run.json"), *seed]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 3
    assert err.getvalue() == "error: instance.seed must be a nonnegative integer, got -1\n"
    assert not out.exists()
