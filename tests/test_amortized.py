"""Inference network: linear oracle, collapse behavior, identity case."""

import numpy as np
import pytest

from fluvinv.generators import ProceduralGenerator, sample_prior
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLossConfig,
    InferenceNet,
    InferenceNetConfig,
    InversionError,
    Observations,
    expected_prior_pairwise_distance,
    mean_pairwise_distance,
    train_inference_network,
)
from fluvinv.survey import extract_well_data
from helpers import LinearGenerator


def test_linear_generator_trains_to_small_mismatch():
    rng = np.random.default_rng(0)
    A = 0.05 * rng.standard_normal((6, 4))
    gen = LinearGenerator(A)
    z_star = rng.standard_normal(4)
    truth = gen.generate(z_star)
    wells = extract_well_data(truth, [(i, 0) for i in range(6)])
    obs = Observations(wells=wells)
    cfg = InferenceNetConfig(hidden=(16,), steps=2000, batch=8, lr=1e-2,
                             loss=DataLossConfig(lambda_z=0.0), rng_seed=0)
    result = train_inference_network(gen, obs, cfg)
    assert not result.halted
    zs = result.net.sample(32, rng_seed=1)
    mismatch = np.mean([np.mean(np.abs(gen.generate(z).coarse_fraction.reshape(-1)
                                       - truth.coarse_fraction.reshape(-1)))
                        for z in zs])
    assert mismatch < 1e-3


def test_overconstrained_data_collapses_latents():
    geometry = GridGeometry(nx=32, ny=32, nz=8)
    gen = ProceduralGenerator(geometry, latent_dim=16, label_dim=0)
    truth = gen.generate(sample_prior(1, 16, rng_seed=50)[0], dtype=np.float64)
    locs = [(int(ix), int(iy)) for ix, iy in
            np.random.default_rng(1).integers(0, 32, size=(20, 2))]
    wells = extract_well_data(truth, locs)
    obs = Observations(wells=wells)
    cfg = InferenceNetConfig(hidden=(32,), steps=600, batch=8, lr=1e-2,
                             collapse_reg=0.0, rng_seed=2)
    result = train_inference_network(gen, obs, cfg)
    zs = result.net.sample(64, rng_seed=3)
    spread = mean_pairwise_distance(zs)
    assert spread < 0.1 * expected_prior_pairwise_distance(16)


def test_identity_net_zero_steps_passes_noise_through():
    net = InferenceNet(noise_dim=5, latent_dim=5, hidden=(),
                       weights={"fc0.w": np.eye(5), "fc0.b": np.zeros(5)})
    eps = np.random.default_rng(4).standard_normal(5)
    np.testing.assert_array_equal(net.push(eps), eps)


def test_expected_pairwise_distance_matches_monte_carlo():
    rng = np.random.default_rng(5)
    d = 8
    z = rng.standard_normal((4000, d))
    mc = np.mean(np.linalg.norm(z[: 2000] - z[2000:], axis=1))
    assert abs(mc - expected_prior_pairwise_distance(d)) < 0.05


@pytest.mark.parametrize("field, value", [
    ("lr", -1.0), ("lr", 0.0), ("steps", -2), ("noise_dim", 0), ("hidden", (0,)),
    ("hidden", (16, 0)), ("batch", 0), ("collapse_reg", -0.1),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(InversionError, match=field):
        InferenceNetConfig(**{field: value})


@pytest.mark.parametrize("latents", [np.zeros(4), np.zeros((1, 3)), np.zeros((2, 3, 1))],
                         ids=["1-d", "one-row", "3-d"])
def test_mean_pairwise_distance_rejects_other_than_rows_of_latents(latents):
    with pytest.raises(InversionError, match="latents"):
        mean_pairwise_distance(latents)


@pytest.mark.parametrize("d", [0, -1, 2.5])
def test_expected_prior_pairwise_distance_rejects_a_bad_dimension(d):
    with pytest.raises(InversionError, match="dimension"):
        expected_prior_pairwise_distance(d)
