"""Flow-based variational inference: conjugate oracle, prior fit, ELBO trend."""

import warnings

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv.inversion import (FlowConfig, FlowModel, InversionError, Observations,
                               gaussian_data_loglik, variational_infer)
from fluvinv.survey import extract_well_data
from helpers import LinearGenerator


def make_conjugate_case(seed=0, sigma=0.2):
    rng = np.random.default_rng(seed)
    A = 0.8 * np.eye(4) + 0.15 * rng.standard_normal((4, 4))
    gen = LinearGenerator(A, offset=0.0)
    z_star = np.array([1.2, -0.8, 1.5, -1.1])
    y = A @ z_star
    mean, cov = gen.posterior(y, sigma)

    def loglik(tape, z):
        pred = tc.dense(tape.constant(A), z)
        resid = pred - tape.constant(y)
        return (-0.5 / sigma ** 2) * tc.sum_all(tc.square(resid))

    return loglik, mean, cov


def test_conjugate_gaussian_posterior_recovered():
    loglik, mean, cov = make_conjugate_case()
    cfg = FlowConfig(n_layers=4, hidden=(24,), steps=3000, batch=8, lr=0.02,
                     n_posterior=4000, rng_seed=0)
    result = variational_infer(loglik, dim=4, config=cfg)
    draws = result.posterior
    mu_hat = draws.mean(axis=0)
    var_hat = draws.var(axis=0)
    assert np.all(np.abs(mu_hat - mean) <= 0.05 * np.abs(mean))
    assert np.all(np.abs(var_hat - np.diag(cov)) <= 0.10 * np.diag(cov))


def test_no_data_flow_stays_near_prior():
    cfg = FlowConfig(n_layers=4, hidden=(16,), steps=800, batch=16, lr=0.01,
                     rng_seed=1, n_posterior=10)
    result = variational_infer(None, dim=6, config=cfg)
    flow = result.flow
    # KL(q || prior) by sampling: E[-|u|^2/2 - logdet + |z|^2/2]
    rng = np.random.default_rng(2)
    total = 0.0
    n = 1500
    for _ in range(n):
        u = rng.standard_normal(6)
        tape = tc.GraphTape(np.float64)
        z, logdet = flow.transform(tape, tape.constant(u))
        total += (-0.5 * u @ u - float(logdet.value)
                  + 0.5 * float(np.sum(np.square(z.value))))
    assert total / n < 0.05


def test_smoothed_elbo_non_decreasing_across_seeds():
    ok = 0
    for seed in range(10):
        loglik, _, _ = make_conjugate_case(seed=seed + 10)
        cfg = FlowConfig(n_layers=2, hidden=(16,), steps=400, batch=8,
                         rng_seed=seed, n_posterior=4)
        result = variational_infer(loglik, dim=4, config=cfg)
        h = result.elbo_history
        window = 100
        first = h[:window].mean()
        last = h[-window:].mean()
        ok += last >= first
    assert ok >= 9


def test_flow_transform_matches_sample_path():
    flow = FlowModel(4, FlowConfig(n_layers=3, hidden=(8,), rng_seed=3))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 13, 0))))
    u = rng.standard_normal(4)
    np.testing.assert_array_equal(flow.push(u), flow.sample(1, rng_seed=5)[0])


def test_scale_clamp_warns():
    cfg = FlowConfig(n_layers=1, hidden=(4,), scale_clip=0.01, rng_seed=4)
    flow = FlowModel(4, cfg)
    # force a large raw scale
    for k, v in flow.weights.items():
        if k.endswith("fc1.b"):
            flow.weights[k] = v + 10.0
    with pytest.warns(UserWarning, match="clamped"):
        flow.push(np.ones(4))


def test_clamp_counts_per_layer_in_transform():
    cfg = FlowConfig(n_layers=3, hidden=(4,), scale_clip=8.0, rng_seed=4)
    flow = FlowModel(4, cfg)
    d_b = 2
    flow.weights["layer1.fc1.b"][:d_b] += 10.0  # the raw scales of layer 1 only
    tape = tc.GraphTape(np.float64)
    counts = np.zeros(3, dtype=np.int64)
    with pytest.warns(UserWarning, match="clamped"):
        flow.transform(tape, tape.constant(np.zeros((5, 4))), clamped=counts)
    np.testing.assert_array_equal(counts, [0, 5 * d_b, 0])


@pytest.mark.parametrize("scale_clip, clamps", [(1e-9, True), (8.0, False)])
def test_variational_result_counts_clamped_entries(scale_clip, clamps):
    cfg = FlowConfig(n_layers=2, hidden=(4,), steps=6, batch=3, scale_clip=scale_clip,
                     n_posterior=2, rng_seed=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = variational_infer(None, 5, cfg)
    # layer 0 scales the last 3 coordinates, layer 1 the first 2; every raw
    # scale is nonzero, so a clip of 1e-9 clamps each one at every step
    expected = [6 * 3 * 3, 6 * 3 * 2] if clamps else [0, 0]
    np.testing.assert_array_equal(result.clamp_counts, expected)
    n_warned = sum("clamped" in str(w.message) for w in caught)
    assert n_warned == (2 * 6 + 2 if clamps else 0)  # per layer per transform, fit and draws


def test_flow_needs_two_dims():
    from fluvinv.inversion.loss import InversionError
    with pytest.raises(InversionError):
        FlowModel(1, FlowConfig())


@pytest.mark.parametrize("field, value", [
    ("lr", -0.5), ("lr", 0.0), ("steps", -2), ("n_layers", 0), ("hidden", (0,)),
    ("hidden", (8, 0)), ("batch", 0), ("sigma", 0.0), ("scale_clip", 0.0),
    ("n_posterior", 0),
])
def test_flow_config_rejects_bad_values(field, value):
    with pytest.raises(InversionError, match=field):
        FlowConfig(**{field: value})


@pytest.mark.parametrize("sigma", [0.0, -0.3, float("nan")])
def test_gaussian_data_loglik_rejects_non_positive_sigma(sigma):
    gen = LinearGenerator(np.eye(3))
    wells = extract_well_data(gen.generate(np.zeros(3)), [(0, 0)])
    with pytest.raises(InversionError, match="sigma"):
        gaussian_data_loglik(gen, Observations(wells=wells), sigma)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
def test_gaussian_data_loglik_rejects_non_finite_sigma(sigma):
    # sigma = inf made every log-likelihood -0.0, so each method fit the prior
    gen = LinearGenerator(np.eye(3))
    wells = extract_well_data(gen.generate(np.zeros(3)), [(0, 0)])
    with pytest.raises(InversionError, match="finite"):
        gaussian_data_loglik(gen, Observations(wells=wells), sigma)
