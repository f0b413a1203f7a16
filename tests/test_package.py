"""The package as a user meets it: the manual's examples, the modules an
import loads, the console script and the oldest Python it supports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import lpam
import lpam.cli

ROOT = Path(__file__).parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this lpam, run with ``args``."""
    env = {**os.environ, "PYTHONPATH": str(Path(lpam.__file__).parents[1])}
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_readme_python_blocks_run_in_order_in_one_namespace():
    # so the documented API cannot drift from the package
    namespace = {}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)


def test_numpy_is_the_only_third_party_module_an_import_loads():
    code = """
import sys
before = set(sys.modules)
import lpam, lpam.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded - set(sys.stdlib_module_names)))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["lpam", "numpy"]


def test_the_console_script_is_lpam_cli_main():
    # the installed lpam command calls the target pyproject.toml names;
    # that installing puts it on PATH is left to CI
    scripts = PYPROJECT.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    ((module, name),) = re.findall(r'^lpam = "([\w.]+):(\w+)"$', scripts, re.M)
    assert getattr(importlib.import_module(module), name) is lpam.cli.main
    proc = _python("-m", "lpam.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lpam")


def test_every_file_parses_as_the_oldest_supported_python():
    # requires-python is read with a pattern, since tomllib is new in 3.11
    (floor,) = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT, re.M)
    version = tuple(int(part) for part in floor)
    files = [p for top in ("src", "tests", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_bytes(), str(path), feature_version=version)


def _file_calls(tree: ast.AST):
    """The lines of calls that open a file, in any spelling, or read or
    write one as JSON."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            owner = getattr(getattr(f, "value", None), "id", None)
            if name == "open" or (owner == "json" and name in ("load", "dump")):
                yield node.lineno


def test_only_fileio_touches_files():
    # one module reads and writes every file, so one file policy holds
    package = Path(lpam.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "fileio.py" in modules
    calls = [
        f"{path.name}:{line}"
        for path in modules
        if path.name != "fileio.py"
        for line in _file_calls(ast.parse(path.read_bytes()))
    ]
    assert not calls, f"files opened outside lpam/fileio.py: {calls}"
    assert list(_file_calls(ast.parse((package / "fileio.py").read_bytes())))
