"""Grid geometry and the two-property model grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridGeometry", "ModelGrid", "GridError"]


class GridError(Exception):
    pass


@dataclass(frozen=True)
class GridGeometry:
    """Cell counts and sizes; full-scale default is 128 x 128 x 16 at 50 x 50 x 0.5 m."""

    nx: int = 128
    ny: int = 128
    nz: int = 16
    dx: float = 50.0
    dy: float = 50.0
    dz: float = 0.5

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise GridError(f"cell counts must be >= 1, got {self.nx}x{self.ny}x{self.nz}")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise GridError("cell sizes must be > 0")

    @property
    def shape(self):
        """Array shape in (z, y, x) order, x fastest-varying."""
        return (self.nz, self.ny, self.nx)

    @property
    def n_cells(self):
        return self.nx * self.ny * self.nz


@dataclass
class ModelGrid:
    """Two-channel deposit grid: coarse-sediment fraction and normalized deposition time.

    Both channels are (nz, ny, nx) arrays with values in [0, 1].
    """

    geometry: GridGeometry
    coarse_fraction: np.ndarray
    depo_time: np.ndarray
    labels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        shape = self.geometry.shape
        if self.coarse_fraction.shape != shape or self.depo_time.shape != shape:
            raise GridError(
                f"channel shapes {self.coarse_fraction.shape}/{self.depo_time.shape} "
                f"do not match geometry {shape}")
        if not self.in_range():
            raise GridError("model grid channels must lie in [0, 1]")

    def in_range(self, tol=1e-6):
        return (self.coarse_fraction.min() >= -tol and self.coarse_fraction.max() <= 1 + tol
                and self.depo_time.min() >= -tol and self.depo_time.max() <= 1 + tol)

    def copy(self):
        return ModelGrid(self.geometry, self.coarse_fraction.copy(), self.depo_time.copy(),
                         None if self.labels is None else self.labels.copy())
