"""Grid geometry and the two-property model grid."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridGeometry", "ModelGrid", "GridError", "check_config"]

_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_INTEGERS = (int, np.integer)


class GridError(Exception):
    pass


def check_config(config, error, *bounds):
    """Raise ``error`` naming the first field of ``config`` outside its bound.

    Each bound is ``(names, op, limit)``: space-separated field names, one of
    ``">="``, ``">"``, ``"<="``, ``"<"``, and the limit, as in
    ``("nx ny nz", ">=", 1)``. A tuple or list has each entry checked.

    - NaN and +-inf fail every bound.
    - A minimum (``">="`` or ``">"``) written as an int also requires an
      integer, so 2.5 fails ``(name, ">=", 1)``; write a float field's
      minimum as a float (``0.0``).
    - None fails, except in a field whose default is None, where it means
      "unset" and skips the field's bounds.
    """
    for names, op, limit in bounds:
        within = _COMPARE[op]
        integral = op[0] == ">" and type(limit) is int
        for name in names.split():
            value = getattr(config, name)
            if value is None and getattr(type(config), name, 0) is None:
                continue
            for v in value if isinstance(value, (tuple, list)) else (value,):
                valid = (isinstance(v, _INTEGERS) if integral
                         else v is not None and math.isfinite(v))
                if not (valid and within(v, limit)):
                    kind = "an integer" if integral else "finite and"
                    raise error(f"{name} must be {kind} {op} {limit}, got {value}")


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
        check_config(self, GridError, ("nx ny nz", ">=", 1), ("dx dy dz", ">", 0.0))

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
