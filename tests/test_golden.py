"""Every run of the golden matrix against the traces recorded in the fixture.

``tests/golden_traces.json`` was written by ``tests/make_golden.py`` and
is never rewritten to make this test pass.  The comparison is by
tolerance, not by bytes: the low bits of a trace depend on numpy, the
FFT and BLAS builds and the machine, and on any change to the order of
floating-point operations.

Per row, the discrete columns (``k``, ``branch``, ``ls_count``,
``reduced``) and the run's exit reason must be identical.  The float
columns must agree within RTOL relative to themselves, and ``decrease``
within RTOL relative to ``phi_pre`` (it is a difference of two values of
that size), but only on rows with ``eps >= GATE_EPS``; so must the final
iterate's summary when every row is gated.  Below ``eps = 1e-3`` the
smoothed problem is ill-conditioned: the solver, rerun on the same
arithmetic from an initial point with one entry moved by one ulp,
drifts on those rows by up to 2.6e-4 in these relative measures over
the matrix, while its gated rows stay within RTOL.  So those rows are
compared and their drift is recorded as the test property
``ungated_drift`` (``conftest.py`` prints the largest at the end of the
session), but it does not fail the test.  A failure names the first
diverging row.
"""

import csv
import io
import json

import numpy as np
import pytest

from tests.make_golden import FIXTURE, cases, projection, run

RTOL = 1e-10
GATE_EPS = 1e-3
DISCRETE = ("k", "branch", "ls_count", "reduced")
FLOATS = ("eps", "phi", "grad_norm", "phi_pre", "grad_norm_pre")

with open(FIXTURE) as fh:
    GOLDEN = json.load(fh)["runs"]


def rows(trace: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(trace)))


def relative_gaps(ref: dict, got: dict) -> dict:
    """Each float column's gap, relative to the reference value (to phi_pre
    for decrease)."""
    gaps = {}
    for col in FLOATS:
        a, b = float(ref[col]), float(got[col])
        gaps[col] = abs(a - b) / abs(a) if a != 0.0 else abs(b)
    gap = abs(float(ref["decrease"]) - float(got["decrease"]))
    gaps["decrease"] = gap / abs(float(ref["phi_pre"]))
    return gaps


def compare(ref: dict, got: dict, n: int) -> tuple[list[str], float]:
    """The divergences of run ``got`` from ``ref``, first diverging row first,
    and the largest relative gap on the ungated rows.  ``n`` is the block
    length."""
    errors = []
    if got["exit_reason"] != ref["exit_reason"]:
        errors.append(f"exit reason {got['exit_reason']!r}, expected {ref['exit_reason']!r}")
    ref_rows, got_rows = rows(ref["trace"]), rows(got["trace"])
    if len(got_rows) != len(ref_rows):
        errors.append(f"{len(got_rows)} trace rows, expected {len(ref_rows)}")
    drift = 0.0
    for r, g in zip(ref_rows, got_rows):
        for col in DISCRETE:
            if g[col] != r[col]:
                errors.append(f"row k={r['k']}: {col} = {g[col]}, expected {r[col]}")
        gaps = relative_gaps(r, g)
        if float(r["eps"]) >= GATE_EPS:
            errors += [
                f"row k={r['k']}: {col} = {g[col]}, expected {r[col]} (relative gap {gap:.3g})"
                for col, gap in gaps.items()
                if not gap <= RTOL
            ]
        else:
            drift = max(drift, *gaps.values())
    pnorm = float(np.linalg.norm(projection(n)))
    for block, summary in ref["iterate"].items():
        norm = summary["norm"]
        gaps = {
            "norm": abs(got["iterate"][block]["norm"] - norm) / norm,
            "proj": abs(got["iterate"][block]["proj"] - summary["proj"]) / (pnorm * norm),
        }
        if all(float(r["eps"]) >= GATE_EPS for r in ref_rows):
            errors += [
                f"final {block}: {name} relative gap {gap:.3g}"
                for name, gap in gaps.items()
                if not gap <= RTOL
            ]
        else:
            drift = max(drift, *gaps.values())
    return errors, drift


@pytest.mark.parametrize("run_id, params", cases(), ids=[run_id for run_id, _ in cases()])
def test_run_matches_golden_trace(run_id, params, request):
    errors, drift = compare(GOLDEN[run_id], run(**params), params["size"] ** 2)
    # not record_property, which warns under junit_family xunit2
    request.node.user_properties.append(("ungated_drift", drift))
    assert not errors, f"{run_id} diverges first at " + "; ".join(errors[:5])


def test_fixture_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(run_id for run_id, _ in cases())


def test_comparator_names_the_first_diverging_row():
    run_id, params = cases()[0]
    ref = GOLDEN[run_id]
    lines = ref["trace"].splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))  # phi of row k=2
    bent = dict(ref, trace="".join(lines[:3] + [",".join(cells)] + lines[4:]))
    errors, _ = compare(ref, bent, params["size"] ** 2)
    assert len(errors) == 1 and errors[0].startswith("row k=2: phi")
    errors, _ = compare(ref, dict(ref, exit_reason="numeric_error"), params["size"] ** 2)
    assert errors == ["exit reason 'numeric_error', expected 'iteration_cap'"]
