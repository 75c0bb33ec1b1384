"""Model grid validation."""

import numpy as np
import pytest

from fluvinv.grids import GridError, GridGeometry, ModelGrid
from helpers import rejection_test


@pytest.mark.parametrize("channel", ["coarse_fraction", "depo_time"])
@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_channel_outside_unit_range_raises_grid_error(channel, bad):
    geometry = GridGeometry(nx=2, ny=2, nz=2)
    channels = {"coarse_fraction": np.full(geometry.shape, 0.5),
                "depo_time": np.full(geometry.shape, 0.5)}
    channels[channel][0, 0, 0] = bad
    with pytest.raises(GridError, match=r"\[0, 1\]"):
        ModelGrid(geometry, **channels)


# callable, arguments, error, message fragment
REJECTIONS = {
    "channel shapes": (ModelGrid, (GridGeometry(nx=2, ny=2, nz=2), np.zeros((2, 2, 3)),
                                   np.zeros((2, 2, 2))), GridError,
                       "channel shapes (2, 2, 3)/(2, 2, 2) do not match geometry (2, 2, 2)"),
}

test_model_grid_rejects_bad_input = rejection_test(REJECTIONS)
