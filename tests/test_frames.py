"""Frame pins: the Python function calls one solver iteration makes.

Timings on a shared machine swing by up to 2x between processes; the
number of Python frames a solve opens does not.  The pin counts the
frames of the quadratic-cli job's solve (``lpam solve`` on the quadratic
toy at 32x32, to tolerance), where arithmetic is cheap and each call
around it shows, so a change that wraps a step of the iteration in one
more function fails here and not only in a noisy benchmark.  Only frames
in ``src/lpam``'s files and in numpy's own Python files are counted, so
the pin does not depend on the numpy version.  A change that moves the
pin on purpose updates it and says why in CHANGES.md, as for the golden
traces.
"""

import dataclasses
import os
import sys

import numpy as np

import lpam
from lpam import QuadraticToy, TwoBlockPoint, lpam_run

from tests.cases import QUAD_CLI

SIDE = 32
# lpam frames per iteration of the 914-iteration solve (numpy 2.4,
# Python 3.11); one more function around a step that runs once per
# iteration adds 1.0, which the margin does not forgive
FRAMES_PER_ITERATION = 36.70
MARGIN = 0.25


def _frames(run) -> tuple[int, int]:
    """The Python frames opened while ``run()`` runs: (those in lpam's
    files, those in numpy's)."""
    lpam_dir = os.path.dirname(lpam.__file__) + os.sep
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(lpam_dir):
                counts[0] += 1
            elif path.startswith(numpy_dir):
                counts[1] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts[0], counts[1]


def test_a_solver_iteration_opens_its_pinned_frames():
    obj = QuadraticToy()
    X0 = TwoBlockPoint(np.ones(SIDE * SIDE), np.ones(SIDE * SIDE))
    runs = []
    lpam_frames, numpy_frames = _frames(lambda: runs.append(lpam_run(obj, X0, QUAD_CLI)))
    state, _ = runs[0]
    assert state.k == 914
    per_iteration = lpam_frames / state.k
    assert abs(per_iteration - FRAMES_PER_ITERATION) <= MARGIN, per_iteration
    # numpy opens its frames once per solve (np.errstate's), none inside the
    # loop: a one-iteration solve opens as many
    one = dataclasses.replace(QUAD_CLI, max_iter=1)
    assert _frames(lambda: lpam_run(obj, X0, one))[1] == numpy_frames
