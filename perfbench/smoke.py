#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, about a minute in all.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced with
``run.py --smoke`` and checks that each run passes its correctness
checks and emits exactly the metric names of ``BENCHMARK.json`` with
their declared units.  Then copies ``BENCHMARK.json`` and this directory,
without ``src/``, and checks that ``run.py`` there exits nonzero without
printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for wl in bench["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                print(f"FAIL {where}: bad result line {result}")
                return 1
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                print(f"FAIL {where}: missing {missing}, unexpected {extra}")
                return 1
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} checks passed")

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, bench["workloads"][0]["name"], 0, smoke=False)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        print(f"FAIL without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        return 1
    print(f"ok   without src/: exit {proc.returncode}, nothing on stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
