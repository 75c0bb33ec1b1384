"""Correctness gate, run on every workload before anything is timed.

Three checks on the workload's latent objective (the DataLoss of latent
optimization):

1. at the truth latent every well residual, and every seismic residual where
   the workload has seismic, is exactly zero;
2. a central finite difference along a seed-derived direction matches the
   taped directional derivative at a seed-derived latent (with the PSF
   velocity frozen and the squared data metric, see below);
3. for the default seed, objective and gradient at that latent match the
   values stored in ``reference.json`` to float64 relative error 1e-10.

``python3 -m fluvbench.gate --write`` (from the repository root, with
``src`` on PYTHONPATH) rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fluvinv import inversion
from fluvinv import tensors as tc

from . import cases

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-10
FD_STEP = 1e-6
# The finite-difference check uses the squared metric: with the workload's
# absolute metric, a step that carries one of the ~800k seismic residuals
# across zero gives a relative error near 1e-3 (seen at 128x128x16), a kink
# of the metric rather than a gradient error. Smooth errors at this step
# measure below 1e-7 on all three workloads.
FD_RTOL = 1e-6
# The generators have kinks too (|y - centerline|, leaky_relu). About one
# probe in a hundred has one inside the step and errs near 1e-4, so a second,
# independent probe point is tried before the check fails. A wrong gradient
# fails at both.
FD_PROBES = 2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def probe_point(case, attempt=0):
    """Seed-derived latent and unit direction for the gradient checks."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((case.seed, 97 + attempt))))
    z = rng.standard_normal(case.generator.latent_dim)
    v = rng.standard_normal(case.generator.latent_dim)
    return z, v / np.linalg.norm(v)


def objective(case, data_loss, z, grad=False):
    """Latent objective at z (and its gradient w.r.t. z when ``grad``)."""
    tape = tc.GraphTape(np.float64)
    zn = tape.input(z)
    coarse, _ = case.generator.build(tape, zn)
    value = data_loss.build(tape, coarse, z=zn)
    if not grad:
        return float(value.value)
    return float(value.value), tape.backward(value).wrt(zn)


def fresh_loss(case, freeze_velocity_at=None, metric=None):
    """A new DataLoss, so that automatic term weights freeze at its first use.

    ``metric`` replaces the workload's data metric when given.

    SeismicModel excludes the PSF's average velocity from differentiation, so
    the taped gradient is that of the objective with the velocity held fixed.
    ``freeze_velocity_at`` (a latent) fixes it at that latent's value, which
    makes the objective one whose finite differences the tape must match.
    """
    obs = case.observations
    if freeze_velocity_at is not None and case.seismic_model is not None:
        model = case.seismic_model
        grid = case.generator.generate(freeze_velocity_at, dtype=np.float64)
        v = model.average_velocity(grid.coarse_fraction, grid.geometry)
        obs = inversion.Observations(
            wells=obs.wells, seismic=obs.seismic,
            seismic_model=replace(model, psf=replace(model.psf, velocity_mps=v)))
    config = case.loss_config if metric is None else replace(case.loss_config, metric=metric)
    return inversion.DataLoss(obs, config, geometry=case.generator.geometry)


def truth_residual(case):
    tape = tc.GraphTape(np.float64)
    coarse, _ = case.generator.build(tape, tape.input(case.z_true))
    wells = case.wells
    resid = [tc.take(coarse, wells.flat_cell_indices()).value - wells.values()]
    if case.seismic_model is not None:
        pred = case.seismic_model.build(tape, coarse, case.generator.geometry)
        resid.append(pred.value - case.observations.seismic.amplitudes)
    worst = max(float(np.max(np.abs(r))) for r in resid)
    return Check("truth_residual_zero", worst == 0.0, f"max |residual| {worst:.3e}")


def directional_fd(case):
    errors = []
    for attempt in range(FD_PROBES):
        z, v = probe_point(case, attempt)
        loss = fresh_loss(case, freeze_velocity_at=z, metric="squared")
        _, g = objective(case, loss, z, grad=True)
        analytic = float(g @ v)
        hi = objective(case, loss, z + FD_STEP * v)
        lo = objective(case, loss, z - FD_STEP * v)
        numeric = (hi - lo) / (2.0 * FD_STEP)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
        if errors[-1] <= FD_RTOL:
            break
    return Check("gradient_fd", bool(errors[-1] <= FD_RTOL),
                 "relative error " + ", ".join(f"{e:.3e}" for e in errors)
                 + f" (tolerance {FD_RTOL:g})")


def reference_values(case):
    z, _ = probe_point(case)
    return objective(case, case.data_loss, z, grad=True)


def reference_check(workload, case=None, reference_path=REFERENCE_PATH):
    """Compare the default-seed objective and gradient with reference.json."""
    if case is None or case.seed != cases.case_seed(DEFAULT_SEED):
        case = cases.setup_case(workload, DEFAULT_SEED)
    refs = json.loads(reference_path.read_text())
    if workload.name not in refs:
        return Check("reference_default_seed", False, f"no reference for {workload.name}")
    ref = refs[workload.name]
    value, g = reference_values(case)
    ref_g = np.asarray(ref["gradient"])
    err_v = abs(value - ref["objective"]) / abs(ref["objective"])
    err_g = float(np.max(np.abs(g - ref_g)) / np.max(np.abs(ref_g)))
    ok = err_v <= REFERENCE_RTOL and err_g <= REFERENCE_RTOL
    return Check("reference_default_seed", bool(ok),
                 f"objective rel error {err_v:.3e}, gradient rel error {err_g:.3e}")


def run_gate(workload, case, reference_path=REFERENCE_PATH):
    return [truth_residual(case), directional_fd(case),
            reference_check(workload, case, reference_path)]


def write_reference(workloads, path):
    refs = {}
    for workload in workloads:
        value, g = reference_values(cases.setup_case(workload, DEFAULT_SEED))
        refs[workload.name] = {"seed": DEFAULT_SEED, "objective": value, "gradient": g.tolist()}
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 -m fluvbench.gate --write")
    write_reference(cases.WORKLOADS.values(), REFERENCE_PATH)
