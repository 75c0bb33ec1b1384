"""Shared data-mismatch loss over wells and optional seismic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import tensors as tc

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
    contributing equally. A single active term gets weight 1.
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
        for w in (self.well_weight, self.seismic_weight):
            if w is not None and w < 0:
                raise InversionError("term weights must be >= 0")
        if self.lambda_z < 0:
            raise InversionError("lambda_z must be >= 0")


class DataLoss:
    """L = w_well * mean(metric(well residuals)) + w_seis * mean(metric(seismic
    residuals)) + lambda_z * |z|^2 / d, built on a tape."""

    def __init__(self, observations, config=None, geometry=None):
        self.obs = observations
        self.config = config or DataLossConfig()
        if self.config.use_wells and observations.wells is None:
            raise InversionError("well term active but no well dataset given")
        if self.config.use_seismic and observations.seismic is None:
            raise InversionError("seismic term active but no seismic cube given")
        self.geometry = geometry or (observations.wells.geometry
                                     if observations.wells is not None
                                     else observations.seismic.geometry)
        if self.config.use_wells:
            self._well_idx = observations.wells.flat_cell_indices()
            self._well_vals = observations.wells.values()
        self._frozen = None  # (w_well, w_seis) once equal-contribution is set

    def reset_weights(self):
        self._frozen = None

    def _metric_mean(self, residual):
        if self.config.metric == "squared":
            return tc.mean_all(tc.square(residual))
        return tc.mean_all(tc.absolute(residual))

    def residuals(self, tape, coarse):
        """Residual nodes (prediction - observation) of the active terms,
        keyed "well" and "seismic", from a coarse-fraction node."""
        terms = {}
        if self.config.use_wells:
            picked = tc.take(coarse, self._well_idx)
            obs = tape.constant(self._well_vals)
            terms["well"] = picked - obs
        if self.config.use_seismic:
            pred = self.obs.seismic_model.build(tape, coarse, self.geometry)
            obs = tape.constant(self.obs.seismic.amplitudes)
            if pred.value.shape != obs.value.shape:
                raise InversionError(
                    f"seismic prediction {pred.value.shape} does not match "
                    f"observations {obs.value.shape}")
            terms["seismic"] = pred - obs
        return terms

    def build(self, tape, coarse, z=None):
        """Scalar loss node from a coarse-fraction node (and optional latent)."""
        terms = {name: self._metric_mean(r)
                 for name, r in self.residuals(tape, coarse).items()}

        if self._frozen is None:
            self._frozen = self._freeze_weights(terms)
        w_well, w_seis = self._frozen

        total = None
        if "well" in terms:
            total = w_well * terms["well"]
        if "seismic" in terms:
            part = w_seis * terms["seismic"]
            total = part if total is None else total + part
        if z is not None and self.config.lambda_z > 0:
            d = z.value.size
            total = total + (self.config.lambda_z / d) * tc.sum_all(tc.square(z))
        return total

    def _freeze_weights(self, terms):
        w_well = self.config.well_weight
        w_seis = self.config.seismic_weight
        both_auto = len(terms) == 2 and w_well is None and w_seis is None
        if both_auto:
            w_well = 1.0 / max(float(terms["well"].value), 1e-12)
            w_seis = 1.0 / max(float(terms["seismic"].value), 1e-12)
        else:
            w_well = 1.0 if w_well is None else w_well
            w_seis = 1.0 if w_seis is None else w_seis
        return (w_well, w_seis)


def well_mae(grid, wells):
    """Inversion error: mean |sample - observation| over the well cells."""
    picked = grid.coarse_fraction.reshape(-1)[wells.flat_cell_indices()]
    return float(np.mean(np.abs(picked - wells.values())))
