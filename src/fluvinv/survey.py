"""Observation wells: sequential weighted placement and log extraction.

Wells are placed in two stages. Four legacy wells are drawn first from a
joint weight map with a wide exclusion zone; the extra wells are then drawn
per test sample with tighter radii, the legacy wells contributing their own
smaller exclusion. Around every existing well the selection probability is
zero inside the exclusion radius and ramps linearly up to one across the
ramp band.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .generators import keyed_rng
from .grids import GridGeometry

__all__ = [
    "SurveyError",
    "StagePolicy",
    "PlacementPolicy",
    "Well",
    "WellDataset",
    "place_wells",
    "extract_well_data",
    "write_wells_csv",
    "read_wells_csv",
]


class SurveyError(Exception):
    pass


@dataclass(frozen=True)
class StagePolicy:
    """Radii in meters for one placement stage."""

    count: int
    exclusion_m: float
    ramp_m: float

    def __post_init__(self):
        if not 0 < self.exclusion_m < self.ramp_m:
            raise SurveyError(
                f"need 0 < exclusion < ramp outer radius, got "
                f"{self.exclusion_m} / {self.ramp_m}")


@dataclass(frozen=True)
class PlacementPolicy:
    """Two-stage policy; defaults follow the 1 km / 0.5 km / 0.25 km layout."""

    legacy: StagePolicy = StagePolicy(count=4, exclusion_m=1000.0, ramp_m=2000.0)
    extra: StagePolicy = StagePolicy(count=16, exclusion_m=500.0, ramp_m=1000.0)
    legacy_in_stage2: StagePolicy = StagePolicy(count=0, exclusion_m=250.0, ramp_m=500.0)


@dataclass(frozen=True)
class Well:
    well_id: str
    ix: int
    iy: int


@dataclass
class WellDataset:
    """Coarse-fraction columns at the well locations (never deposition time)."""

    geometry: GridGeometry
    wells: list = field(default_factory=list)      # list[Well]
    columns: np.ndarray = None                     # (n_wells, nz)

    def __post_init__(self):
        for w in self.wells:
            if not (0 <= w.ix < self.geometry.nx and 0 <= w.iy < self.geometry.ny):
                raise SurveyError(f"well {w.well_id} at ({w.ix}, {w.iy}) out of bounds")
        if self.columns is not None:
            if self.columns.shape != (len(self.wells), self.geometry.nz):
                raise SurveyError(
                    f"column block {self.columns.shape} does not match "
                    f"{len(self.wells)} wells x {self.geometry.nz} layers")
            if self.columns.size and (self.columns.min() < 0 or self.columns.max() > 1):
                raise SurveyError("well values must lie in [0, 1]")

    def flat_cell_indices(self):
        """Indices into a flattened (nz, ny, nx) channel, layer-major."""
        nz, ny, nx = self.geometry.shape
        idx = []
        for w in self.wells:
            base = w.iy * nx + w.ix
            idx.extend(base + z * ny * nx for z in range(nz))
        return np.asarray(idx, dtype=np.intp)

    def values(self):
        return self.columns.reshape(-1)

    def subset(self, n_wells):
        if n_wells > len(self.wells):
            raise SurveyError(f"dataset has {len(self.wells)} wells, asked for {n_wells}")
        return WellDataset(self.geometry, self.wells[:n_wells], self.columns[:n_wells].copy())


def _ramp_mask(geometry, ix, iy, exclusion_m, ramp_m):
    x = (np.arange(geometry.nx) - ix) * geometry.dx
    y = (np.arange(geometry.ny) - iy) * geometry.dy
    dist = np.hypot(y[:, None], x[None, :])
    return np.clip((dist - exclusion_m) / (ramp_m - exclusion_m), 0.0, 1.0)


def _draw(rng, weight, geometry, stage, policy, index):
    total = weight.sum(dtype=np.float64)
    if not np.isfinite(total) or total <= 0.0:
        raise SurveyError(
            f"stage {stage}: no feasible cell left for well {index} of {policy.count} "
            f"(exclusion {policy.exclusion_m:g} m, ramp {policy.ramp_m:g} m) on a "
            f"{geometry.nx}x{geometry.ny} grid of {geometry.dx:g} m cells "
            f"({geometry.nx * geometry.dx:g} m x {geometry.ny * geometry.dy:g} m)")
    flat = rng.choice(weight.size, p=(weight / total).reshape(-1))
    iy, ix = np.unravel_index(flat, weight.shape)
    return int(ix), int(iy)


def place_wells(weight_maps, policy, rng_seed, geometry=None):
    """Legacy wells shared by all samples plus per-sample extra wells.

    ``weight_maps``: one non-negative (ny, nx) map per test sample, typically
    the vertically averaged coarse fraction. Stage 1 weights by the mean of
    all maps; stage 2 weights by each sample's own map. Returns
    (legacy, extras) with ``legacy`` a list of (ix, iy) and ``extras`` one
    list per sample.

    ``geometry`` sets the cell size that turns the policy's radii in metres
    into cells; its nx and ny must match the maps. Without it the cells are
    50 m (the ``GridGeometry`` default).
    """
    maps = [np.asarray(m, dtype=np.float64) for m in weight_maps]
    if not maps:
        raise SurveyError("need at least one weight map")
    shape = maps[0].shape
    for m in maps:
        if m.shape != shape:
            raise SurveyError("weight maps must share a shape")
        if m.min() < 0:
            raise SurveyError("weight maps must be non-negative")
    if geometry is None:
        geometry = GridGeometry(nx=shape[1], ny=shape[0], nz=1)
    elif (geometry.ny, geometry.nx) != shape:
        raise SurveyError(f"weight maps of (ny, nx) shape {shape} do not match the "
                          f"{geometry.nx}x{geometry.ny} grid")
    rng = keyed_rng(rng_seed)

    joint = np.mean(maps, axis=0)
    legacy = []
    mask = np.ones(shape)
    for i in range(policy.legacy.count):
        ix, iy = _draw(rng, joint * mask, geometry, 1, policy.legacy, i)
        legacy.append((ix, iy))
        mask = mask * _ramp_mask(geometry, ix, iy,
                                 policy.legacy.exclusion_m, policy.legacy.ramp_m)

    extras = []
    for m in maps:
        mask = np.ones(shape)
        for ix, iy in legacy:
            mask = mask * _ramp_mask(geometry, ix, iy,
                                     policy.legacy_in_stage2.exclusion_m,
                                     policy.legacy_in_stage2.ramp_m)
        placed = []
        for i in range(policy.extra.count):
            ix, iy = _draw(rng, m * mask, geometry, 2, policy.extra, i)
            placed.append((ix, iy))
            mask = mask * _ramp_mask(geometry, ix, iy,
                                     policy.extra.exclusion_m, policy.extra.ramp_m)
        extras.append(placed)
    return legacy, extras


def extract_well_data(grid, locations):
    """Copy the noise-free coarse-fraction columns at the given (ix, iy)
    locations; well n is named ``W{n:02d}``."""
    geometry = grid.geometry
    wells, cols = [], []
    for n, (ix, iy) in enumerate(locations):
        if not (0 <= ix < geometry.nx and 0 <= iy < geometry.ny):
            raise SurveyError(f"well location ({ix}, {iy}) out of bounds "
                              f"{geometry.nx}x{geometry.ny}")
        wells.append(Well(well_id=f"W{n:02d}", ix=int(ix), iy=int(iy)))
        cols.append(grid.coarse_fraction[:, iy, ix].astype(np.float64))
    columns = np.array(cols) if cols else np.zeros((0, geometry.nz))
    return WellDataset(geometry, wells, columns)


def write_wells_csv(path, dataset):
    """CSV rows (well_id, ix, iy, iz, coarse_fraction); each value is written
    as the shortest decimal that reads back to the same float64."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["well_id", "ix", "iy", "iz", "coarse_fraction"])
        for w, col in zip(dataset.wells, dataset.columns):
            for iz, v in enumerate(col):
                writer.writerow([w.well_id, w.ix, w.iy, iz, repr(float(v))])


def read_wells_csv(path, geometry):
    """Read what :func:`write_wells_csv` writes. A repeated (well_id, iz) row,
    a well whose ix/iy changes between rows, or a well without every layer
    raises :class:`SurveyError`."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    by_well = {}
    for r in rows:
        key, ix, iy, iz = r["well_id"], int(r["ix"]), int(r["iy"]), int(r["iz"])
        info = by_well.setdefault(key, {"ix": ix, "iy": iy, "vals": {}})
        if (info["ix"], info["iy"]) != (ix, iy):
            raise SurveyError(f"well {key}: at ({info['ix']}, {info['iy']}) and at "
                              f"({ix}, {iy})")
        if iz in info["vals"]:
            raise SurveyError(f"well {key}: layer {iz} given twice")
        info["vals"][iz] = float(r["coarse_fraction"])
    wells, cols = [], []
    for key, info in by_well.items():
        if sorted(info["vals"]) != list(range(geometry.nz)):
            raise SurveyError(f"well {key}: layers do not cover 0..{geometry.nz - 1}")
        wells.append(Well(key, info["ix"], info["iy"]))
        cols.append([info["vals"][z] for z in range(geometry.nz)])
    columns = np.asarray(cols, dtype=np.float64).reshape(len(wells), geometry.nz)
    return WellDataset(geometry, wells, columns)
