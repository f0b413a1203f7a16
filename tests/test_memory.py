"""Allocation pins: the ``tracemalloc`` peak of a short solve and of a large mask.

Timings on a shared machine swing by up to 2x between processes; an
allocation peak does not.  Each test pins one peak at its measured value
(numpy 2.4, Python 3.11), so a change that keeps one more full-size array
fails here and not only in a noisy benchmark.  A change that moves a pin
on purpose updates it and says why in CHANGES.md, as for the golden traces.
"""

import tracemalloc

import numpy as np
import pytest

from lpam import (
    IdentityExtractor,
    InstanceSpec,
    JointRecovery,
    LpamConfig,
    generate_instance,
    lpam_run,
    random_extractor,
)
from lpam.operators import radial_mask

SIDE = 64
# half of one float64 image per pixel: a change that keeps one more
# full-size float64 array at the peak moves it by at least twice this
SOLVE_MARGIN = 4.0


def _peak(fn) -> int:
    """Peak traced bytes above the start while fn runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make_extractor, bytes_per_pixel",
    [
        (lambda: IdentityExtractor(SIDE, SIDE), 181.0),
        (lambda: random_extractor(SIDE, SIDE, num_layers=4, channels=8, seed=1), 753.0),
    ],
    ids=["identity", "cnn-4x8"],
)
def test_solve_peak_bytes_per_pixel(make_extractor, bytes_per_pixel):
    inst = generate_instance(InstanceSpec(SIDE, SIDE), seed=0)
    obj = JointRecovery(inst.dft, inst.kspace, make_extractor(), lam=0.0093)
    X0 = obj.zero_filled()
    config = LpamConfig(max_iter=3)
    # the warm-up makes this thread's conv and DFT scratch, which outlives
    # the solve, so the pin does not depend on which tests ran before
    lpam_run(obj, X0, config)
    peak = _peak(lambda: lpam_run(obj, X0, config)) / (SIDE * SIDE)
    assert abs(peak - bytes_per_pixel) <= SOLVE_MARGIN, peak


def test_radial_mask_peak_at_1024():
    # half of one 1024x1024 boolean mask: the search draws one full mask
    # per spoke count, so keeping a copy of each moves the peak by far more
    margin = 0.5 * 2**20
    peak = _peak(lambda: radial_mask(1024, 1024, 0.3, np.random.default_rng(0)))
    assert abs(peak - 6.15 * 2**20) <= margin, peak / 2**20
