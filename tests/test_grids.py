"""Model grid validation."""

import numpy as np
import pytest

from fluvinv.grids import GridError, GridGeometry, ModelGrid


@pytest.mark.parametrize("channel", ["coarse_fraction", "depo_time"])
@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_channel_outside_unit_range_raises_grid_error(channel, bad):
    geometry = GridGeometry(nx=2, ny=2, nz=2)
    channels = {"coarse_fraction": np.full(geometry.shape, 0.5),
                "depo_time": np.full(geometry.shape, 0.5)}
    channels[channel][0, 0, 0] = bad
    with pytest.raises(GridError, match=r"\[0, 1\]"):
        ModelGrid(geometry, **channels)
