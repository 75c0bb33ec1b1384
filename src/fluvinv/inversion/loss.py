"""Shared data-mismatch loss over wells and optional seismic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensors as tc
from ..grids import check_config

__all__ = ["InversionError", "Observations", "DataLossConfig", "DataLoss", "well_mae"]


class InversionError(Exception):
    pass


@dataclass
class Observations:
    """What a case provides to invert against."""

    wells: object = None           # survey.WellDataset
    seismic: object = None         # geophysics.SeismicCube
    seismic_model: object = None   # geophysics.SeismicModel (forward operator)

    def __post_init__(self):
        if self.seismic is not None and self.seismic_model is None:
            raise InversionError("seismic observations need a forward model")


@dataclass
class DataLossConfig:
    """Term selection, metric, weights and latent prior penalty.

    ``None`` weights mean: each active term is scaled by the inverse of its
    value at the first evaluation, frozen afterwards, so both terms start
    contributing equally. A term that is exactly 0 at the first evaluation
    (a start at the data) has no scale to invert and gets weight 1. A single
    active term gets weight 1.
    """

    use_wells: bool = True
    use_seismic: bool = False
    metric: str = "squared"        # or "absolute"
    lambda_z: float = 1e-3
    well_weight: float | None = None
    seismic_weight: float | None = None

    def __post_init__(self):
        if not (self.use_wells or self.use_seismic):
            raise InversionError("at least one data term must be active")
        if self.metric not in ("squared", "absolute"):
            raise InversionError(f"unknown metric {self.metric!r}")
        check_config(self, InversionError, ("lambda_z well_weight seismic_weight", ">=", 0.0))


class DataLoss:
    """L = w_well * mean(metric(well residuals)) + w_seis * mean(metric(seismic
    residuals)) + lambda_z * |z|^2 / d, built on a tape."""

    def __init__(self, observations, config=None, geometry=None):
        self.obs = observations
        self.config = config or DataLossConfig()
        if self.config.use_wells and observations.wells is None:
            raise InversionError("well term active but no well dataset given")
        if self.config.use_wells and not observations.wells.wells:
            raise InversionError("well term active but the well dataset has no wells")
        if self.config.use_seismic and observations.seismic is None:
            raise InversionError("seismic term active but no seismic cube given")
        self.geometry = geometry or (observations.wells.geometry
                                     if observations.wells is not None
                                     else observations.seismic.geometry)
        if self.config.use_wells:
            self._well_idx = observations.wells.flat_cell_indices()
            self._well_vals = observations.wells.values()
        self._frozen = None  # (w_well, w_seis) once equal-contribution is set

    @property
    def cells(self):
        """Flat grid cells the loss reads: the well cells when the seismic term
        is off, else None (the seismic forward model reads the whole grid).
        A generator built at these cells is a valid ``coarse`` argument."""
        if self.config.use_seismic:
            return None
        return self._well_idx

    def _metric(self, residual):
        if self.config.metric == "squared":
            return tc.square(residual)
        return tc.absolute(residual)

    def _batch_shape(self, shape):
        """(leading batch shape, whether at :attr:`cells`) of a coarse node's
        shape: () or (B,) before the grid shape or ``(len(cells),)``."""
        forms = [(self.geometry.shape, False)]
        if self.cells is not None:
            forms.append(((len(self.cells),), True))
        for base, at_cells in forms:
            n = len(shape) - len(base)
            if n in (0, 1) and shape[n:] == base:
                return shape[:n], at_cells
        expected = " or ".join(f"{base} (optionally after a batch axis)" for base, _ in forms)
        raise InversionError(f"coarse node has shape {shape}, expected {expected}")

    def residuals(self, tape, coarse):
        """Residual nodes (prediction - observation) of the active terms,
        keyed "well" and "seismic", from a coarse-fraction node.

        ``coarse`` is either the full grid, shape (nz, ny, nx), or, when
        :attr:`cells` is not None, the grid at those cells, shape
        ``(len(cells),)``, which is used as is. Either may carry a leading
        batch axis of B models, which the residuals keep.
        """
        batch, at_cells = self._batch_shape(coarse.value.shape)
        terms = {}
        if self.config.use_wells:
            if at_cells:
                picked = coarse
            else:
                idx = self._well_idx
                if batch:
                    idx = np.arange(batch[0])[:, None] * self.geometry.n_cells + idx
                picked = tc.take(coarse, idx)
            obs = tape.constant(self._well_vals)
            terms["well"] = picked - obs
        if self.config.use_seismic:
            pred = self.obs.seismic_model.build(tape, coarse, self.geometry)
            obs = tape.constant(self.obs.seismic.amplitudes)
            if pred.value.shape[len(batch):] != obs.value.shape:
                raise InversionError(
                    f"seismic prediction {pred.value.shape} does not match "
                    f"observations {obs.value.shape}")
            terms["seismic"] = pred - obs
        return terms

    def build(self, tape, coarse, z=None, rows=False):
        """Scalar loss node from a coarse-fraction node (any form that
        :meth:`residuals` takes) and an optional latent node.

        For a batch (``coarse`` with a leading batch axis, ``z`` of shape
        (B, d)) the loss is the batch mean of the per-sample losses: every
        term is a mean over the batch too. Automatic weights freeze from the
        first sample of the first evaluation.

        With ``rows=True`` a batch gives instead the B per-sample losses,
        shape (B,): row i is the loss a single build of sample i would give,
        with automatic weights frozen per row at its first evaluation.
        """
        reduce = tc.mean_rows if rows else tc.mean_all
        metrics, terms = {}, {}
        for name, r in self.residuals(tape, coarse).items():
            metrics[name] = self._metric(r)
            terms[name] = reduce(metrics[name])

        if self._frozen is None:
            if rows:
                first = {name: t.value.astype(np.float64) for name, t in terms.items()}
            else:
                batched = bool(self._batch_shape(coarse.value.shape)[0])
                first = {name: _mean_value(m.value[0] if batched else m.value)
                         for name, m in metrics.items()}
            self._frozen = self._freeze_weights(first)
        w_well, w_seis = self._frozen

        total = None  # node first: an array of per-row weights must not lead
        if "well" in terms:
            total = terms["well"] * w_well
        if "seismic" in terms:
            part = terms["seismic"] * w_seis
            total = part if total is None else total + part
        if z is not None and self.config.lambda_z > 0:
            d = z.value.shape[-1] if rows else z.value.size
            square = tc.square(z)
            total = total + (self.config.lambda_z / d) * (
                tc.sum_axis(square, -1) if rows else tc.sum_all(square))
        return total

    def _freeze_weights(self, first):
        """(w_well, w_seis) from the first sample's term values ``first``:
        floats, or arrays of per-row values, which give per-row weights."""
        w_well = self.config.well_weight
        w_seis = self.config.seismic_weight
        both_auto = len(first) == 2 and w_well is None and w_seis is None
        if both_auto:
            w_well = _inverse_or_one(first["well"])
            w_seis = _inverse_or_one(first["seismic"])
        else:
            w_well = 1.0 if w_well is None else w_well
            w_seis = 1.0 if w_seis is None else w_seis
        return (w_well, w_seis)


def _mean_value(a):
    """``float(tc.mean_all(node).value)`` for a node holding array ``a``:
    the same float64 sum, rounded to the array's dtype."""
    return float(np.asarray(a.sum(dtype=np.float64) / a.size, dtype=a.dtype))


def _inverse_or_one(value):
    """Automatic weight of a term worth ``value`` at its first evaluation
    (a float, or an array of per-row values)."""
    if np.ndim(value):
        return np.where(value == 0.0, 1.0, 1.0 / np.maximum(value, 1e-12))
    return 1.0 if value == 0.0 else 1.0 / max(value, 1e-12)


def well_mae(grid, wells):
    """Inversion error: mean |sample - observation| over the well cells."""
    if not wells.wells:
        raise InversionError("well MAE over a well dataset with no wells")
    picked = grid.coarse_fraction.reshape(-1)[wells.flat_cell_indices()]
    return float(np.mean(np.abs(picked - wells.values())))
