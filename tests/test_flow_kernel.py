"""The fused coupling flow and dense chain against the tape records they replaced.

``FlowModel.transform`` is one ``tc.custom`` record over u and every weight,
and ``mlp_apply`` one over x and the weights, each a numpy forward with a
hand-derived backward. ``helpers.taped_flow_transform`` and
``helpers.taped_mlp_apply`` are the same constructions as one record per op.
Every op of the fused forward computes what its record did, and every
gradient sum of the backward has two terms, which add alike in either
order, so values and gradients must equal the references bit for bit, in
float32 and float64, for a loss that reads z, the log-determinant or both.
Both are entries of ``helpers.FAST_PATHS``.
"""

import warnings

import numpy as np
import pytest
from helpers import EXACT, FAST_PATHS, assert_matches, check_fast_path, taped_flow_transform

import fluvinv.tensors as tc
from fluvinv.generators import ProceduralGenerator, sample_prior
from fluvinv.grids import GridGeometry
from fluvinv.inversion import FlowConfig, FlowModel, Observations, gaussian_data_loglik
from fluvinv.inversion import variational_infer
from fluvinv.inversion.networks import mlp_init
from fluvinv.survey import extract_well_data

DTYPES = [np.float64, np.float32]


def _flow(dim, hidden, scale_clip=8.0, seed=3):
    """A flow whose weights are its initial ones plus noise, so that every
    layer's scales and shifts are far from zero."""
    flow = FlowModel(dim, FlowConfig(n_layers=4, hidden=hidden, scale_clip=scale_clip,
                                     rng_seed=seed))
    rng = np.random.default_rng(seed)
    for k, v in flow.weights.items():
        flow.weights[k] = v + 0.3 * rng.standard_normal(v.shape)
    return flow


def _run_flow(transform, flow, u, dtype, reads):
    """Values and gradients by name of ``transform(tape, u, weights)`` on a
    fresh tape with u and the weights as inputs; the loss reads z and/or
    the log-determinant (``reads``)."""
    tape = tc.GraphTape(dtype)
    un = tape.input(u)
    wn = {k: tape.input(v) for k, v in flow.weights.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z, logdet = transform(tape, un, wn)
    c = tape.constant(np.random.default_rng(5).standard_normal(z.value.shape))
    terms = []
    if "z" in reads:
        terms.append(tc.sum_all(tc.square(z) * c))
    if "logdet" in reads:
        terms.append(0.7 * logdet)
    loss = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    g = tape.backward(loss)
    return {"z": z.value, "logdet": logdet.value, "u": g.wrt(un),
            **{k: g.wrt(n) for k, n in wn.items()}}


def _fused(flow):
    return lambda tape, u, w: flow.transform(tape, u, w)


def _taped(flow):
    return lambda tape, u, w: taped_flow_transform(flow, tape, u, w)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("hidden", [(4,), (16,), (8, 8)], ids=str)
@pytest.mark.parametrize("shape", [(8,), (0, 8), (1, 8), (4, 8), (7, 8), (4, 5)], ids=str)
@pytest.mark.parametrize("reads", [("z",), ("logdet",), ("z", "logdet")], ids="+".join)
def test_flow_equals_taped_transform(dtype, hidden, shape, reads):
    flow = _flow(shape[-1], hidden)
    u = np.random.default_rng(1).standard_normal(shape)
    assert_matches(_run_flow(_fused(flow), flow, u, dtype, reads),
                   _run_flow(_taped(flow), flow, u, dtype, reads), EXACT)


def test_flow_push_takes_an_empty_batch():
    z = _flow(8, (16,)).push(np.zeros((0, 8)))
    assert z.shape == (0, 8) and z.dtype == np.float64


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
def test_flow_scale_gradient_is_zero_at_and_beyond_the_clip(dtype):
    clip = 0.5
    flow = _flow(4, (4,), scale_clip=clip)
    # layer 0's raw scales are exactly its output bias: +-clip and beyond it
    flow.weights["layer0.fc1.w"][:] = 0.0
    flow.weights["layer0.fc1.b"][:2] = [clip, -1.5 * clip]
    u = np.random.default_rng(2).standard_normal((3, 4))
    got = _run_flow(_fused(flow), flow, u, dtype, ("z", "logdet"))
    assert_matches(got, _run_flow(_taped(flow), flow, u, dtype, ("z", "logdet")), EXACT)
    np.testing.assert_array_equal(got["layer0.fc1.b"][:2], 0.0)
    np.testing.assert_array_equal(got["layer0.fc1.w"][:2], 0.0)
    assert np.all(got["layer0.fc1.b"][2:] != 0.0)  # the shifts still take gradients


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
def test_flow_propagates_nan_as_the_tape(dtype):
    flow = _flow(6, (8,))
    u = np.random.default_rng(3).standard_normal((4, 6))
    u[1, 4] = np.nan
    got = _run_flow(_fused(flow), flow, u, dtype, ("z", "logdet"))
    assert_matches(got, _run_flow(_taped(flow), flow, u, dtype, ("z", "logdet")), EXACT)
    assert np.isnan(got["logdet"])
    assert np.isnan(got["z"][1]).any() and not np.isnan(got["z"][[0, 2, 3]]).any()


@pytest.mark.parametrize("reads", [("z",), ("z", "logdet")], ids="+".join)
def test_flow_constant_u_takes_no_gradient(reads):
    flow = _flow(5, (8,))
    u = np.random.default_rng(4).standard_normal((3, 5))
    results = []
    for transform in (_fused(flow), _taped(flow)):
        tape = tc.GraphTape(np.float64)
        un = tape.constant(u)
        wn = {k: tape.input(v) for k, v in flow.weights.items()}
        z, logdet = transform(tape, un, wn)
        loss = tc.sum_all(tc.square(z)) + (logdet if "logdet" in reads else 0.0)
        g = tape.backward(loss)
        np.testing.assert_array_equal(g.wrt(un), 0.0)
        results.append({k: g.wrt(n) for k, n in wn.items()})
    assert_matches(*results, EXACT)


def test_flow_clamp_warning_and_counts_match_taped():
    flow = _flow(5, (4,), scale_clip=0.2)
    u = np.random.default_rng(6).standard_normal((3, 5))
    counts = []
    for transform in (flow.transform, lambda *a, **k: taped_flow_transform(flow, *a, **k)):
        tape = tc.GraphTape(np.float64)
        clamped = np.zeros(4, dtype=np.int64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transform(tape, tape.constant(u), clamped=clamped)
        warned = [w for w in caught if "clamped" in str(w.message)]
        assert len(warned) == np.count_nonzero(clamped)
        assert all(w.filename == __file__ for w in warned)  # the caller's line
        counts.append(clamped)
    assert counts[0].sum() > 0
    np.testing.assert_array_equal(*counts)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("hidden", [(), (5,), (5, 6)], ids=["1-layer", "2-layer", "3-layer"])
@pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 3)], ids=str)
def test_mlp_apply_equals_taped_chain(dtype, hidden, shape):
    weights = mlp_init(3, hidden, 4, np.random.default_rng(8))
    for k in weights:
        weights[k] = weights[k] + 0.1  # nonzero biases
    x = np.random.default_rng(9).standard_normal(shape)
    check_fast_path(FAST_PATHS["mlp_apply"], dtype, ({"x": x, **weights},
                                                     {"n_layers": len(hidden) + 1}), seed=7)


def test_flow_step_records_few_tape_records(monkeypatch):
    """A desk-scale ELBO step (procedural 32x32x8, four wells, batch 4, four
    layers, d = 8) records at most 20 records; the taped transform made it 66."""
    gen = ProceduralGenerator(GridGeometry(nx=32, ny=32, nz=8), latent_dim=8)
    truth = gen.generate(sample_prior(1, 8, rng_seed=3)[0], dtype=np.float64)
    obs = Observations(wells=extract_well_data(truth, [(4, 5), (20, 9), (11, 26), (27, 22)]))
    counts = []
    backward = tc.GraphTape.backward

    def counting(self, output, seed=None):
        counts.append(len(self._records))
        return backward(self, output, seed)

    monkeypatch.setattr(tc.GraphTape, "backward", counting)
    variational_infer(gaussian_data_loglik(gen, obs, 0.3), 8,
                      FlowConfig(n_layers=4, hidden=(16,), steps=2, batch=4, n_posterior=2))
    assert counts and max(counts) <= 20, counts
