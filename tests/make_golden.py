"""The golden-trace matrix: 48 solver runs and the fixture that records them.

Run ``PYTHONPATH=src python tests/make_golden.py`` to rewrite
``tests/golden_traces.json``.  Only do so on a commit whose traces are
meant to become the new reference: ``tests/test_golden.py`` compares
every later run against this file.

For each run the fixture keeps the exit reason, the full ``trace.csv``
text and a summary of the final iterate: each block's norm and its dot
product with one fixed random vector.
"""

from __future__ import annotations

import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from lpam import extractor
from lpam.objectives import JointRecovery
from lpam.operators import InstanceSpec, generate_instance
from lpam.solver import LpamConfig, lpam_run, write_trace_csv

FIXTURE = Path(__file__).resolve().parent / "golden_traces.json"

LAM = 0.0093
# (features, image size, iterations)
PROBLEMS = [("identity", 32, 60), ("identity", 128, 20), ("cnn", 32, 8), ("cnn", 16, 30)]
SEEDS = (0, 1, 2)
MODES = ("lpam", "bcd")
EPS_SIGMAS = (60000.0, 50.0)


def cases() -> list[tuple[str, dict]]:
    """(run id, parameters) for every run of the matrix."""
    out = []
    for (features, size, iters), seed, mode, sigma in itertools.product(
        PROBLEMS, SEEDS, MODES, EPS_SIGMAS
    ):
        run_id = f"{features}-{size}-it{iters}-seed{seed}-{mode}-sigma{sigma:g}"
        out.append(
            (
                run_id,
                dict(features=features, size=size, iters=iters, seed=seed, mode=mode, sigma=sigma),
            )
        )
    return out


def projection(n: int) -> np.ndarray:
    """The fixed random vector each final block of length n is projected on."""
    return np.random.default_rng(20240).standard_normal(n)


def run(features: str, size: int, iters: int, seed: int, mode: str, sigma: float) -> dict:
    """One run's exit reason, trace text and final-iterate summary."""
    inst = generate_instance(InstanceSpec(height=size, width=size), seed)
    if features == "identity":
        ext = extractor.IdentityExtractor(size, size)
    else:
        ext = extractor.random_extractor(size, size, num_layers=4, channels=8, seed=1)
    obj = JointRecovery(inst.dft, inst.kspace, ext, LAM)
    config = LpamConfig(max_iter=iters, mode=mode, eps_sigma=sigma)
    state, reason = lpam_run(obj, obj.zero_filled(), config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(state.trace, path)
        trace = path.read_text()
    p = projection(size * size)
    iterate = {
        name: {"norm": float(np.linalg.norm(x)), "proj": float(np.dot(p, x))}
        for name, x in (("x1", state.X.x1), ("x2", state.X.x2))
    }
    return {"exit_reason": reason, "trace": trace, "iterate": iterate}


def main() -> int:
    fixture = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "runs": {run_id: run(**params) for run_id, params in cases()},
    }
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fixture['runs'])} runs to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
