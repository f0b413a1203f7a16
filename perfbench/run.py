#!/usr/bin/env python3
"""Run one benchmark workload against the ``lpam`` sources of this checkout.

    python3 perfbench/run.py --workload identity-128 --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the run's details: sample counts and spreads,
exact counts, trace hashes and the machine record.

Exit codes: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark cannot run at all, for
example when ``src/lpam`` is missing; then nothing is printed on
standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS and OpenMP pools are pinned to one thread (at most nproc): on a
# shared two-core machine a second BLAS thread made extractor timings
# swing by a third from solve to solve.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_lpam():
    """Import ``lpam`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "lpam" / "__init__.py").is_file():
        raise ImportError(f"no lpam package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lpam

    if not Path(lpam.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lpam imported from {lpam.__file__}, not from {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_lpam()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        res = table[args.workload].run(args.seed, args.seconds, bool(args.trace), work)
        spans = work / "spans.csv"
        if spans.exists():
            kept = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            spans.replace(kept)
            res.detail["spans_file"] = str(kept.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        res.metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
        res.metrics["success_ratio"] = ((res.attempted - res.failed) / max(res.attempted, 1), "ratio")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": workloads.ratio(res.failed, res.attempted),
        "errors": res.errors[:20],
        "machine": machine_record(),
        **res.detail,
    }
    for name, (value, unit) in sorted(res.metrics.items()):
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps(detail, default=str))
    correct = res.correct and res.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(res.attempted, 1),
                "failed": res.failed if res.attempted else 1,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
