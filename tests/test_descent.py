"""The shared descent loop: schedules, labels, tuning modes and the non-finite
policy, across latent restarts, pivotal tuning, the flow and the inference net."""

import functools
import json
import math

import numpy as np
import pytest

from fluvinv.generators import (
    GeneratorDescriptor,
    NeuralGenerator,
    ProceduralGenerator,
    neutral_labels,
    sample_prior,
)
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    FlowConfig,
    InferenceNetConfig,
    InversionError,
    InversionResult,
    LatentOptimizeConfig,
    Observations,
    PivotalTuneConfig,
    RestartRecord,
    gaussian_data_loglik,
    latent_optimize,
    pivotal_tune,
    train_inference_network,
    variational_infer,
)
from fluvinv.inversion.optimize import Adam, descend
from fluvinv.survey import extract_well_data
from helpers import EXACT, NonFiniteGenerator, PerArrayAdam, assert_matches, rejection_test


def _observations(gen, xy, seed):
    truth = gen.generate(sample_prior(1, gen.latent_dim, rng_seed=seed)[0], dtype=np.float64)
    return Observations(wells=extract_well_data(truth, xy))


def test_label_conditioned_generator_runs_every_gradient_method():
    geometry = GridGeometry(nx=32, ny=32, nz=8)
    desc = GeneratorDescriptor(latent_dim=8, label_dim=5, base_channels=8, num_blocks=2,
                               out_extents=(32, 32, 8))
    gen = NeuralGenerator.random_init(geometry, desc, rng_seed=0)
    obs = _observations(gen, [(4, 5), (20, 27)], seed=1)

    latent = latent_optimize(gen, obs, LatentOptimizeConfig(n_restarts=1, iterations=2))
    assert not latent.restarts[0].aborted
    tuned = pivotal_tune(gen, latent.latents(), obs,
                         PivotalTuneConfig(steps=2, anchors_per_step=1))
    assert np.all(np.isfinite(tuned.mae_after))
    flow = variational_infer(gaussian_data_loglik(gen, obs, 0.3), gen.latent_dim,
                             FlowConfig(n_layers=2, hidden=(4,), steps=2, batch=1,
                                        n_posterior=2))
    assert not flow.halted and len(flow.elbo_history) == 2
    net = train_inference_network(gen, obs, InferenceNetConfig(hidden=(4,), steps=2, batch=1))
    assert not net.halted and len(net.loss_history) == 2


@pytest.mark.parametrize("config", [LatentOptimizeConfig, FlowConfig])
def test_unknown_lr_schedule_rejected(config):
    with pytest.raises(InversionError, match="unknown lr schedule"):
        config(lr_schedule="bogus")


def test_optimized_labels_stay_in_unit_range_and_move():
    gen = ProceduralGenerator(GridGeometry(nx=16, ny=16, nz=4), latent_dim=8)
    obs = _observations(gen, [(2, 3), (8, 12), (13, 5)], seed=2)
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=40, lr=0.2, optimize_labels=True,
                               rng_seed=3)
    for r in latent_optimize(gen, obs, cfg).restarts:
        assert np.all((r.labels >= 0.0) & (r.labels <= 1.0))
        assert np.any(r.labels != neutral_labels())


def test_per_pivot_mode_tunes_each_pivot_with_its_own_seed():
    gen = ProceduralGenerator(GridGeometry(nx=16, ny=16, nz=4), latent_dim=8, label_dim=0)
    obs = _observations(gen, [(2, 3), (8, 12)], seed=4)
    pivots = sample_prior(3, 8, rng_seed=5)
    cfg = PivotalTuneConfig(steps=3, lr=1e-2, anchors_per_step=2, mode="per_pivot",
                            rng_seed=6)
    result = pivotal_tune(gen, pivots, obs, cfg)
    assert len(result.generators) == len(pivots)
    for i, z in enumerate(pivots):
        alone = pivotal_tune(gen, z[None, :], obs,
                             PivotalTuneConfig(steps=3, lr=1e-2, anchors_per_step=2,
                                               rng_seed=6 + i))
        np.testing.assert_array_equal(result.generators[i].weights()["maps"],
                                      alone.generators[0].weights()["maps"])
        np.testing.assert_array_equal(result.loss_history[i], alone.loss_history[0])


@pytest.mark.parametrize("field, value", [
    ("steps", -1), ("anchors_per_step", -1), ("pivots_per_step", -1), ("lr", 0.0),
    ("lr", -1e-3), ("locality_weight", -math.inf), ("locality_weight", -0.5),
    ("locality_weight", math.nan), ("locality_weight", math.inf),
])
def test_tune_config_rejects_invalid_values(field, value):
    with pytest.raises(InversionError, match=field):
        PivotalTuneConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("locality_weight", 0.0),
])
def test_tune_config_accepts_edge_values(field, value):
    assert getattr(PivotalTuneConfig(**{field: value}), field) == value


NAN_STEP = 3


def _nan_case():
    rng = np.random.default_rng(10)
    gen = NonFiniteGenerator(0.05 * rng.standard_normal((6, 4)), nan_step=NAN_STEP)
    truth = gen.generate(rng.standard_normal(4))
    return gen, Observations(wells=extract_well_data(truth, [(i, 0) for i in range(6)]))


def test_non_finite_loss_aborts_latent_restart():
    gen, obs = _nan_case()
    r = latent_optimize(gen, obs, LatentOptimizeConfig(n_restarts=1, iterations=10)).restarts[0]
    assert r.aborted
    assert r.note == f"non-finite loss at iteration {NAN_STEP}"
    assert len(r.loss_history) == NAN_STEP + 1
    assert np.all(np.isfinite(r.loss_history[:-1])) and np.isnan(r.loss_history[-1])
    assert np.all(np.isfinite(r.z))


def test_non_finite_elbo_halts_flow():
    gen, obs = _nan_case()
    result = variational_infer(gaussian_data_loglik(gen, obs, 0.3), gen.latent_dim,
                               FlowConfig(n_layers=2, hidden=(4,), steps=10, batch=2,
                                          n_posterior=2))
    assert result.halted
    assert len(result.elbo_history) == NAN_STEP + 1
    assert all(np.all(np.isfinite(w)) for w in result.flow.weights.values())


def test_non_finite_loss_halts_inference_net():
    gen, obs = _nan_case()
    result = train_inference_network(gen, obs,
                                     InferenceNetConfig(hidden=(4,), steps=10, batch=2))
    assert result.halted
    assert len(result.loss_history) == NAN_STEP + 1
    assert all(np.all(np.isfinite(w)) for w in result.net.weights.values())


def test_non_finite_loss_fails_pivotal_tuning():
    gen, obs = _nan_case()
    with pytest.raises(InversionError, match=f"diverged at step {NAN_STEP}"):
        pivotal_tune(gen, np.zeros((1, 4)), obs, PivotalTuneConfig(steps=10, anchors_per_step=1))


SHAPES = {"w": (3, 4), "b": (4,), "s": (), "rows": (5, 2)}


def _adam_grads(step):
    rng = np.random.default_rng(step)
    grads = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
             for k, shape in SHAPES.items()}
    grads["b"][1] = 0.0  # an entry whose moments stay zero
    return grads


@pytest.mark.parametrize("steps", [1, 5])
def test_adam_one_vector_update_equals_per_array(steps):
    params = {k: np.random.default_rng(1).standard_normal(shape) for k, shape in SHAPES.items()}
    ref_params = {k: v.copy() for k, v in params.items()}
    opt, ref = Adam(lr=0.05), PerArrayAdam(lr=0.05)
    for step in range(steps):
        opt.lr = ref.lr = 0.05 / (step + 1)
        grads = _adam_grads(step)
        # a later step may list its arrays in another order
        opt.step(params, dict(reversed(grads.items())) if step % 2 else grads)
        ref.step(ref_params, grads)
        assert_matches(params, ref_params, EXACT)


def test_adam_halted_row_restore_equals_per_array():
    """descend's update with halted rows: their gradients are zeroed, and
    each parameter array's halted rows are written back in place."""
    halted = np.array([False, True, False, False, True])
    params = {"z": np.random.default_rng(2).standard_normal((5, 3)),
              "labels": np.random.default_rng(3).uniform(size=(5, 2))}
    ref_params = {k: v.copy() for k, v in params.items()}
    opt, ref = Adam(lr=0.1), PerArrayAdam(lr=0.1)
    for step in range(4):
        rng = np.random.default_rng(10 + step)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        grads = {k: np.where(halted[:, None], 0.0, g) for k, g in grads.items()}
        for o, p in ((opt, params), (ref, ref_params)):
            before = dict(p)
            o.step(p, grads)
            for k, old in before.items():
                p[k][halted] = old[halted]
        assert_matches(params, ref_params, EXACT)
    np.testing.assert_array_equal(params["z"][halted],
                                  np.random.default_rng(2).standard_normal((5, 3))[halted])


@pytest.mark.parametrize("change", ["missing", "extra", "reshaped"])
def test_adam_rejects_another_key_set(change):
    opt = Adam()
    params = {"a": np.zeros(4), "b": np.zeros((2, 2))}
    opt.step(params, {"a": np.ones(4), "b": np.ones((2, 2))})
    grads = {"missing": {"a": np.ones(4)},
             "extra": {"a": np.ones(4), "b": np.ones((2, 2)), "c": np.ones(1)},
             "reshaped": {"a": np.ones(4), "b": np.ones(4)}}[change]
    with pytest.raises(InversionError, match="Adam"):
        opt.step(params, grads)


def test_two_runs_of_one_seed_give_byte_equal_json():
    geometry = GridGeometry(nx=16, ny=16, nz=4)
    desc = GeneratorDescriptor(latent_dim=8, base_channels=4, num_blocks=2,
                               out_extents=(16, 16, 4))
    gen = NeuralGenerator.random_init(geometry, desc, rng_seed=0)
    obs = _observations(gen, [(3, 4), (12, 9)], seed=1)

    def run():
        latent = latent_optimize(gen, obs, LatentOptimizeConfig(n_restarts=2, iterations=3,
                                                                rng_seed=5))
        tuned = pivotal_tune(gen, latent.latents(), obs,
                             PivotalTuneConfig(steps=2, anchors_per_step=1, rng_seed=5))
        return latent, tuned

    for first, second in zip(run(), run()):
        plain = first.to_json_dict()
        assert json.dumps(plain) == json.dumps(second.to_json_dict())
        timed = first.to_json_dict(include_timing=True)
        assert timed.pop("wall_clock_s") == first.wall_clock_s
        assert json.dumps(timed) == json.dumps(plain)


_GEN8 = ProceduralGenerator(GridGeometry(nx=8, ny=8, nz=4), latent_dim=8, label_dim=0)
_OBS8 = _observations(_GEN8, [(2, 3)], seed=1)
_ABORTED = RestartRecord(0, np.zeros(8), None, np.array([math.nan]), math.nan, aborted=True)


def _descend_a_vector_loss():
    descend(lambda tape, nodes, step: nodes["z"], {"z": np.zeros(3)}, np.float64, 1, 0.1)


# callable, arguments, error, message fragment
REJECTIONS = {
    "descend loss shape": (_descend_a_vector_loss, (), InversionError,
                           "loss node has shape (3,), expected ()"),
    "every restart aborted": (InversionResult("latent", 0, [_ABORTED]).best, (), InversionError,
                              "all restarts aborted"),
    "labels of an unconditional generator": (
        latent_optimize, (_GEN8, _OBS8, LatentOptimizeConfig(n_restarts=1, iterations=1,
                                                             optimize_labels=True)),
        InversionError, "generator has no labels to co-optimize"),
    "unknown tuning mode": (functools.partial(PivotalTuneConfig, mode="solo"), (), InversionError,
                            "unknown tuning mode 'solo'"),
    "no pivots": (pivotal_tune, (_GEN8, np.zeros((0, 8)), _OBS8), InversionError,
                  "pivotal tuning requires pre-inverted pivot latents"),
}

test_descent_methods_reject_bad_input = rejection_test(REJECTIONS)
