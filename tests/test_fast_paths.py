"""Every fast path against the slow path it replaced, from one table.

``helpers.FAST_PATHS`` names each ``tc.custom`` site under ``src/`` and each
fast engine kernel with its reference, its rule per storage dtype and a
seeded input strategy. Each entry must match its reference in every output
value and in the gradient of every input under a seeded upstream gradient,
at float32 and float64 storage. ``test_packaging`` checks that every
``tc.custom`` call under ``src/`` sits in a function that the table names.
"""

import numpy as np
import pytest
from helpers import FAST_PATHS, check_fast_path, scan_fast_path


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("site", sorted(FAST_PATHS))
def test_fast_path_matches_its_reference(site, dtype, seed):
    path = FAST_PATHS[site]
    check_fast_path(path, dtype, path.cases(seed), seed)


def test_flow_bias_gradients_keep_the_tapes_sign_of_zero():
    # seeds whose clamped coupling scales once gave a -0.0 bias gradient
    # entry where the tape, summing its crops' zero-filled gradients, gives
    # +0.0
    assert scan_fast_path("FlowModel.transform", [np.float32, np.float64],
                          [2359, 2413, 2419, 3463, 3628]) == []
