"""Data-mismatch loss: arithmetic, weighting, gradients."""

import math

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv.generators import ProceduralGenerator, sample_prior
from fluvinv.geophysics import PsfConfig, SeismicCube, SeismicModel
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLoss,
    DataLossConfig,
    InversionError,
    LatentOptimizeConfig,
    Observations,
    gaussian_data_loglik,
    latent_optimize,
    pivotal_tune,
)
from fluvinv.inversion.loss import well_mae
from fluvinv.inversion.optimize import descend
from fluvinv.survey import extract_well_data
from helpers import gradient_check, rejection_test

GEO = GridGeometry(nx=8, ny=8, nz=4)
GEN = ProceduralGenerator(GEO, latent_dim=8, label_dim=0)
Z_TRUE = sample_prior(1, 8, rng_seed=0)[0]
TRUTH = GEN.generate(Z_TRUE, dtype=np.float64)
WELLS = extract_well_data(TRUTH, [(2, 3), (5, 6)])


def build_loss(z, config):
    tape = tc.GraphTape(np.float64)
    zn = tape.constant(z)
    coarse, _ = GEN.build(tape, zn)
    loss = DataLoss(Observations(wells=WELLS), config)
    return float(loss.build(tape, coarse, z=zn).value)


def test_truth_sample_gives_prior_term_only():
    cfg = DataLossConfig(lambda_z=0.5)
    value = build_loss(Z_TRUE, cfg)
    expected = 0.5 * np.sum(Z_TRUE ** 2) / Z_TRUE.size
    assert abs(value - expected) < 1e-12


def test_single_residual_squared_metric():
    # one well, one layer, residual 0.1, unit weight, no prior term -> 0.01
    geometry = GridGeometry(nx=4, ny=4, nz=1)
    from fluvinv.grids import ModelGrid
    truth = ModelGrid(geometry, np.full(geometry.shape, 0.5), np.full(geometry.shape, 0.5))
    wells = extract_well_data(truth, [(1, 1)])
    sample = ModelGrid(geometry, np.full(geometry.shape, 0.6), np.full(geometry.shape, 0.5))
    tape = tc.GraphTape(np.float64)
    coarse = tape.constant(sample.coarse_fraction)
    loss = DataLoss(Observations(wells=wells),
                    DataLossConfig(lambda_z=0.0, well_weight=1.0))
    assert abs(float(loss.build(tape, coarse).value) - 0.01) < 1e-12


def test_all_terms_disabled_rejected():
    with pytest.raises(InversionError, match="at least one"):
        DataLossConfig(use_wells=False, use_seismic=False)


@pytest.mark.parametrize("field, value", [
    ("lambda_z", -1e-3), ("lambda_z", math.nan), ("well_weight", -1.0),
    ("well_weight", math.nan), ("seismic_weight", -1.0), ("seismic_weight", math.nan),
])
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(InversionError, match=field):
        DataLossConfig(**{field: value})


def test_config_rejects_a_missing_lambda_z():
    # only the term weights take None (an automatic weight)
    with pytest.raises(InversionError, match="lambda_z"):
        DataLossConfig(lambda_z=None)


def test_equal_contribution_freeze():
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0, kernel_extents=(9, 1, 1)))
    seismic = model.forward(TRUTH)
    obs = Observations(wells=WELLS, seismic=seismic, seismic_model=model)
    cfg = DataLossConfig(use_seismic=True, lambda_z=0.0)
    loss = DataLoss(obs, cfg)
    z0 = sample_prior(1, 8, rng_seed=5)[0]

    tape = tc.GraphTape(np.float64)
    coarse, _ = GEN.build(tape, tape.constant(z0))
    first = float(loss.build(tape, coarse).value)
    # both terms normalized by their initial value: first call totals 2
    assert abs(first - 2.0) < 1e-9
    # weights frozen: a different sample does not re-normalize to 2
    z1 = sample_prior(1, 8, rng_seed=6)[0]
    tape = tc.GraphTape(np.float64)
    coarse, _ = GEN.build(tape, tape.constant(z1))
    second = float(loss.build(tape, coarse).value)
    assert abs(second - 2.0) > 1e-6


def test_gradient_matches_fd_with_seismic():
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0, kernel_extents=(9, 3, 3)))
    seismic = model.forward(TRUTH)
    obs = Observations(wells=WELLS, seismic=seismic, seismic_model=model)
    cfg = DataLossConfig(use_seismic=True, lambda_z=1e-3,
                         well_weight=1.0, seismic_weight=25.0)
    loss = DataLoss(obs, cfg)

    def fn(tape, z):
        coarse, _ = GEN.build(tape, z)
        return loss.build(tape, coarse, z=z)

    z0 = sample_prior(1, 8, rng_seed=7)[0]
    assert gradient_check(fn, z0, step=1e-5) < 1e-4


def test_a_nan_latent_is_rejected_by_the_seismic_term():
    # a NaN latent gives NaN fractions and so a NaN PSF velocity; the seismic
    # term then scores NaN, as the well term does, rather than raising
    model = SeismicModel()
    obs = Observations(wells=WELLS, seismic=model.forward(TRUTH), seismic_model=model)
    loss = DataLoss(obs, DataLossConfig(use_seismic=True, lambda_z=0.0))
    loglik = gaussian_data_loglik(GEN, obs, 0.1)
    for build in (lambda tape, z: loss.build(tape, GEN.build(tape, z)[0]), loglik):
        tape = tc.GraphTape(np.float64)
        assert math.isnan(float(build(tape, tape.constant(np.full(8, np.nan))).value))


def test_descent_from_a_nan_latent_halts_under_the_seismic_term():
    model = SeismicModel()
    obs = Observations(wells=WELLS, seismic=model.forward(TRUTH), seismic_model=model)
    loss = DataLoss(obs, DataLossConfig(use_seismic=True))
    params = {"z": np.full(8, np.nan)}
    history, halted = descend(lambda tape, nodes, step: loss.build(
        tape, GEN.build(tape, nodes["z"])[0], z=nodes["z"]), params, np.float64, steps=3, lr=0.1)
    assert halted and len(history) == 1 and math.isnan(history[0])


def test_absolute_metric():
    cfg = DataLossConfig(metric="absolute", lambda_z=0.0, well_weight=1.0)
    z0 = sample_prior(1, 8, rng_seed=8)[0]
    value = build_loss(z0, cfg)
    assert abs(value - well_mae(GEN.generate(z0, dtype=np.float64), WELLS)) < 1e-9


def test_zero_first_term_gets_unit_weight():
    # started at the truth, both terms are exactly 0 at the first evaluation;
    # each then gets weight 1 rather than a 1e12 clamp
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0, kernel_extents=(9, 1, 1)))
    obs = Observations(wells=WELLS, seismic=model.forward(TRUTH), seismic_model=model)
    auto = DataLoss(obs, DataLossConfig(use_seismic=True, lambda_z=0.0))
    unit = DataLoss(obs, DataLossConfig(use_seismic=True, lambda_z=0.0,
                                        well_weight=1.0, seismic_weight=1.0))

    def value(loss, z):
        tape = tc.GraphTape(np.float64)
        coarse, _ = GEN.build(tape, tape.constant(z))
        return float(loss.build(tape, coarse).value)

    assert value(auto, Z_TRUE) == 0.0
    z1 = sample_prior(1, 8, rng_seed=6)[0]
    assert value(auto, z1) == value(unit, z1) > 0.0


@pytest.mark.parametrize("empty", [WELLS.subset(0), extract_well_data(TRUTH, [])],
                         ids=["subset", "extract"])
def test_a_well_term_over_zero_wells_is_rejected(empty):
    # it made every latent restart abort at iteration 0, pivotal tuning
    # diverge at step 0 and the Gaussian log-likelihood read -0.0 at every latent
    obs = Observations(wells=empty)
    with pytest.raises(InversionError, match="no wells"):
        DataLoss(obs)
    with pytest.raises(InversionError, match="no wells"):
        latent_optimize(GEN, obs, LatentOptimizeConfig(n_restarts=1, iterations=2))
    with pytest.raises(InversionError, match="no wells"):
        gaussian_data_loglik(GEN, obs, 0.1)
    with pytest.raises(InversionError, match="at least one well"):
        pivotal_tune(GEN, Z_TRUE[None, :], obs)


def test_well_mae_over_zero_wells_is_rejected():
    # it returned NaN with a "Mean of empty slice" warning
    with pytest.raises(InversionError, match="no wells"):
        well_mae(TRUTH, WELLS.subset(0))


def _seismic_residuals(amplitude_shape):
    obs = Observations(seismic=SeismicCube(np.zeros(amplitude_shape), GEO),
                       seismic_model=SeismicModel())
    loss = DataLoss(obs, DataLossConfig(use_wells=False, use_seismic=True), geometry=GEO)
    tape = tc.GraphTape(np.float64)
    loss.residuals(tape, GEN.build(tape, tape.constant(Z_TRUE))[0])


# callable, arguments, error, message fragment
REJECTIONS = {
    "seismic without a model": (Observations, (None, SeismicCube(np.zeros((3, 8, 8)), GEO)),
                                InversionError, "seismic observations need a forward model"),
    "unknown metric": (DataLossConfig, (True, False, "huber"), InversionError,
                       "unknown metric 'huber'"),
    "well term without wells": (DataLoss, (Observations(), DataLossConfig()), InversionError,
                                "well term active but no well dataset given"),
    "seismic term without a cube": (DataLoss, (Observations(wells=WELLS),
                                               DataLossConfig(use_seismic=True)),
                                    InversionError, "seismic term active but no seismic cube"),
    "seismic prediction shape": (_seismic_residuals, ((3, 8, 8),), InversionError,
                                 "does not match observations (3, 8, 8)"),
}

test_loss_rejects_bad_input = rejection_test(REJECTIONS)
