"""Property tests of the CLI's exit-code contract.

Whatever the config overrides or the bytes of its input files, every
command returns 0, 1, 2 or 3 without raising, and 1 only when ``audit``
ran and its report failed.  Instances are 8x8 and drawn integers stay
small, so no case allocates a large instance.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lpam import cli, fileio
from lpam.solver import IterateRecord

CORRUPTIBLE = [f"{name}.arr" for name in cli._INSTANCE_FILES] + [
    "recon1.arr",
    "weights.bin",
    "trace.csv",
]


def run(command: str, out: Path, *options: str) -> int:
    """One CLI command on ``out``; its exit code, checked against the contract.

    numpy's overflow and invalid-value warnings on garbage input are not
    failures of the contract, so they are ignored here.
    """
    if command == "metrics":
        argv = ["metrics", str(out / "recon1.arr"), str(out / "truth1.arr")]
    else:
        argv = [command, "--out", str(out), *options]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
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


@given(st.lists(st.tuples(override_keys, json_values), max_size=4))
@example([("instance.phantom", "shared")])
@example([("audits", {"decrease": False})])
@example([("objective.kind", "identity"), ("solver.eps0", 1e300)])
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
