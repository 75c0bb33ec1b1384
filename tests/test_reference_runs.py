"""Pinned results of tiny fixed-seed runs of the four gradient methods and
of the DREAM(ZS) sampler.

Every loss/ELBO history, every final parameter array and the sampler's
chains and archive of the runs below are compared with
``reference_runs.json`` at rtol 1e-12, so a refactor of the descent loops,
the likelihood, the generator calls or the random streams that changes any
arithmetic shows here. Regenerate the file only on purpose, at a commit whose
results are the reference:

    PYTHONPATH=src python tests/test_reference_runs.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fluvinv.generators import (
    GeneratorDescriptor,
    NeuralGenerator,
    ProceduralGenerator,
    sample_prior,
)
from fluvinv.geophysics import PsfConfig, SeismicModel
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLossConfig,
    DreamConfig,
    FlowConfig,
    InferenceNetConfig,
    LatentOptimizeConfig,
    Observations,
    PivotalTuneConfig,
    dream_zs,
    gaussian_data_loglik,
    latent_optimize,
    pivotal_tune,
    train_inference_network,
    variational_infer,
)
from fluvinv.survey import extract_well_data
from fluvinv.tensors import GraphTape

REFERENCE = Path(__file__).with_name("reference_runs.json")

GEO = GridGeometry(nx=16, ny=16, nz=4)
WELL_XY = [(2, 3), (8, 12), (13, 5)]


def _case(label_dim):
    gen = ProceduralGenerator(GEO, latent_dim=8, label_dim=label_dim)
    truth = gen.generate(sample_prior(1, 8, rng_seed=21)[0], dtype=np.float64)
    return gen, truth, Observations(wells=extract_well_data(truth, WELL_XY))


def _latent(result):
    out = {}
    for r in result.restarts:
        out[f"r{r.index}.loss"] = r.loss_history
        out[f"r{r.index}.z"] = r.z
        out[f"r{r.index}.mae"] = [r.well_mae]
        if r.labels is not None:
            out[f"r{r.index}.labels"] = r.labels
    return out


def _tune(result):
    out = {"mae_after": result.mae_after}
    for i, (gen, hist) in enumerate(zip(result.generators, result.loss_history)):
        out[f"g{i}.loss"] = hist
        for k, v in gen.weights().items():
            out[f"g{i}.{k}"] = v
    return out


def run_latent_neutral():
    gen, _, obs = _case(label_dim=5)
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=30, lr=0.05, lr_schedule="cosine",
                               ball_radius=1.5, loss=DataLossConfig(metric="absolute"),
                               rng_seed=3)
    return _latent(latent_optimize(gen, obs, cfg))


def run_latent_labels():
    gen, _, obs = _case(label_dim=5)
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=30, lr=0.05, optimize_labels=True,
                               rng_seed=4)
    return _latent(latent_optimize(gen, obs, cfg))


def run_latent_seismic():
    geometry = GridGeometry(nx=8, ny=8, nz=4)
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=0)
    truth = gen.generate(sample_prior(1, 8, rng_seed=22)[0], dtype=np.float64)
    model = SeismicModel(psf=PsfConfig(kernel_extents=(9, 3, 3)))
    obs = Observations(wells=extract_well_data(truth, [(2, 3), (5, 6)]),
                       seismic=model.forward(truth), seismic_model=model)
    cfg = LatentOptimizeConfig(n_restarts=1, iterations=10, lr=0.05, lr_schedule="cosine",
                               loss=DataLossConfig(use_seismic=True), rng_seed=5)
    return _latent(latent_optimize(gen, obs, cfg))


def run_tune_shared():
    gen, _, obs = _case(label_dim=0)
    cfg = PivotalTuneConfig(steps=6, lr=1e-2, anchors_per_step=2, pivots_per_step=1,
                            rng_seed=6)
    return _tune(pivotal_tune(gen, sample_prior(2, 8, rng_seed=7), obs, cfg))


def run_tune_per_pivot():
    gen, _, obs = _case(label_dim=5)
    cfg = PivotalTuneConfig(steps=4, lr=1e-2, anchors_per_step=2, mode="per_pivot",
                            locality_weight=0.5, rng_seed=8)
    return _tune(pivotal_tune(gen, sample_prior(2, 8, rng_seed=9), obs, cfg))


def run_tune_neural():
    geometry = GridGeometry(nx=8, ny=8, nz=4)
    desc = GeneratorDescriptor(latent_dim=8, base_channels=4, num_blocks=2,
                               out_extents=(8, 8, 4))
    gen = NeuralGenerator.random_init(geometry, desc, rng_seed=10)
    truth = gen.generate(sample_prior(1, 8, rng_seed=11)[0], dtype=np.float64)
    obs = Observations(wells=extract_well_data(truth, [(1, 2), (6, 5)]))
    cfg = PivotalTuneConfig(steps=3, lr=1e-3, anchors_per_step=1, pivots_per_step=2,
                            rng_seed=12)
    return _tune(pivotal_tune(gen, sample_prior(2, 8, rng_seed=13), obs, cfg))


def run_flow():
    gen, _, obs = _case(label_dim=0)
    cfg = FlowConfig(n_layers=2, hidden=(8,), steps=30, batch=2, lr=0.01, n_posterior=3,
                     rng_seed=14)
    result = variational_infer(gaussian_data_loglik(gen, obs, 0.3), gen.latent_dim, cfg)
    return {"elbo": result.elbo_history, "posterior": result.posterior,
            **{f"w.{k}": v for k, v in result.flow.weights.items()}}


def run_amortized():
    gen, _, obs = _case(label_dim=0)
    cfg = InferenceNetConfig(hidden=(8,), steps=20, batch=3, lr=1e-2, collapse_reg=0.1,
                             rng_seed=15)
    result = train_inference_network(gen, obs, cfg)
    return {"loss": result.loss_history,
            **{f"w.{k}": v for k, v in result.net.weights.items()}}


def run_dream():
    gen, _, obs = _case(label_dim=0)
    loglik = gaussian_data_loglik(gen, obs, 0.3)

    def log_posterior(z):
        tape = GraphTape(np.float64)
        return float(loglik(tape, tape.constant(z)).value) - 0.5 * float(z @ z)

    cfg = DreamConfig(n_chains=5, burn_in=12, generations=8, archive_thin=4,
                      outlier_every=6, init_scale=1.5, rng_seed=18)
    ens = dream_zs(log_posterior, gen.latent_dim, cfg)
    return {"states": ens.states, "log_posteriors": ens.log_posteriors,
            "archive": ens.archive, "accept_rate": [ens.accept_rate],
            "outlier_resets": [ens.outlier_resets]}


RUNS = {f.__name__[4:]: f for f in (run_latent_neutral, run_latent_labels, run_latent_seismic,
                                    run_tune_shared, run_tune_per_pivot, run_tune_neural,
                                    run_flow, run_amortized, run_dream)}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reproduces_reference(name):
    expected = json.loads(REFERENCE.read_text())[name]
    actual = RUNS[name]()
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        np.testing.assert_allclose(np.asarray(actual[key], dtype=np.float64),
                                   np.asarray(want, dtype=np.float64),
                                   rtol=1e-12, atol=0, err_msg=f"{name}: {key}")


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(
        {name: {k: np.asarray(v, dtype=np.float64).tolist() for k, v in fn().items()}
         for name, fn in RUNS.items()}, indent=1) + "\n")
