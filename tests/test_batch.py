"""A leading batch axis through the engine, the generators, the loss and the
flow / inference-net objectives, against the per-sample loops it replaced.

The loops are kept here as the reference: generator rows must equal single
builds exactly, and losses, gradients, training histories and final weights
must match the loop at float64 rtol 1e-12.
"""

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv.generators import (
    GeneratorDescriptor,
    GeneratorError,
    NeuralGenerator,
    ProceduralGenerator,
    sample_prior,
)
from fluvinv.geophysics import PsfConfig, SeismicModel
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLoss,
    DataLossConfig,
    FlowConfig,
    FlowModel,
    InferenceNet,
    InferenceNetConfig,
    Observations,
    gaussian_data_loglik,
    train_inference_network,
    variational_infer,
)
from fluvinv.inversion.optimize import descend
from fluvinv.survey import extract_well_data
from helpers import LinearGenerator, NonFiniteGenerator

GEO = GridGeometry(nx=12, ny=9, nz=4)
PROC = ProceduralGenerator(GEO, latent_dim=8)
NEURAL_GEO = GridGeometry(nx=8, ny=8, nz=4)
NEURAL = NeuralGenerator.random_init(
    NEURAL_GEO, GeneratorDescriptor(latent_dim=6, base_channels=4, out_extents=(8, 8, 4)),
    rng_seed=3)
CELLS = np.array([5, 17, 17, 200, 3, 255, 96])
LABELS = np.array([0.1, 0.9, 0.3, 0.7, 0.5])


def _rows(tape, z):
    """The rows of a (B, d) node as (d,) nodes."""
    d = z.value.shape[1]
    return [tc.reshape(tc.crop(z, (slice(i, i + 1), slice(None))), (d,))
            for i in range(z.value.shape[0])]


def _weighted(tape, node, seed):
    rng = np.random.default_rng(seed)
    return tc.sum_all(tape.constant(rng.standard_normal(node.value.shape)) * node)


# ---------------------------------------------------------------------------
# engine

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_batch_rows_equal_single_products(dtype):
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n, b = rng.integers(1, 40, 3)
        w, x = rng.standard_normal((m, n)), rng.standard_normal((b, n))
        bias = rng.standard_normal(m)
        tape = tc.GraphTape(dtype)
        batch = tc.dense(tape.constant(w), tape.constant(x), tape.constant(bias))
        assert batch.value.shape == (b, m)
        for i in range(b):
            one = tc.dense(tape.constant(w), tape.constant(x[i]), tape.constant(bias))
            np.testing.assert_array_equal(batch.value[i], one.value)


def test_dense_batch_gradients_equal_loop():
    rng = np.random.default_rng(1)
    w, x, bias = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)), rng.standard_normal(5)
    grads = []
    for batched in (True, False):
        tape = tc.GraphTape(np.float64)
        wn, xn, bn = tape.input(w), tape.input(x), tape.input(bias)
        if batched:
            out = _weighted(tape, tc.dense(wn, xn, bn), 2)
        else:
            out = _weighted(tape, tc.stack([tc.dense(wn, r, bn) for r in _rows(tape, xn)]), 2)
        g = tape.backward(out)
        grads.append([g.wrt(n) for n in (wn, xn, bn)])
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_dense_rejects_rank_three_input():
    tape = tc.GraphTape(np.float64)
    with pytest.raises(tc.ShapeError):
        tc.dense(tape.constant(np.ones((2, 3))), tape.input(np.ones((1, 2, 3))))


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_sum_axis_gradient_matches_fd(axis):
    point = np.random.default_rng(3).standard_normal((3, 4))
    err = tc.gradient_check(
        lambda tape, x: tc.sum_all(tc.square(tc.sum_axis(x, axis))), point)
    assert err < 1e-7


def test_sum_axis_value_and_range():
    tape = tc.GraphTape(np.float64)
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(tc.sum_axis(tape.input(x), 0).value, x.sum(axis=0))
    with pytest.raises(tc.ShapeError):
        tc.sum_axis(tape.input(x), 2)


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4, 5), (1, 7)])
def test_mean_rows_gradient_matches_fd(shape):
    point = np.random.default_rng(3).standard_normal(shape)
    err = tc.gradient_check(lambda tape, x: _weighted(tape, tc.mean_rows(tc.square(x)), 4),
                            point)
    assert err < 1e-7


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_rows_equal_row_means(dtype):
    x = np.random.default_rng(4).standard_normal((3, 4, 2, 5)).astype(dtype)
    tape = tc.GraphTape(dtype)
    rows = tc.mean_rows(tape.constant(x))
    assert rows.value.shape == (3,) and rows.value.dtype == dtype
    for i in range(3):
        assert rows.value[i] == tc.mean_all(tape.constant(x[i])).value
    with pytest.raises(tc.ShapeError):
        tc.mean_rows(tape.constant(x[0, 0, 0]))


def test_stack_gradient_matches_fd():
    point = np.random.default_rng(4).standard_normal(6)
    err = tc.gradient_check(
        lambda tape, x: _weighted(tape, tc.stack([x, tc.square(x), x]), 5), point)
    assert err < 1e-7


# ---------------------------------------------------------------------------
# generators

def _build_rows(gen, dtype, zs, cells, labels, batched):
    """(coarse, depo, tape, nodes): one batched build, or single builds stacked."""
    tape = tc.GraphTape(dtype)
    nodes = {"z": tape.input(zs)}
    nodes["w"] = {k: tape.input(v) for k, v in gen.weights().items()}
    lab = None
    if gen.label_dim:
        nodes["labels"] = lab = tape.input(labels)
    if batched:
        coarse, depo = gen.build(tape, nodes["z"], lab, weights=nodes["w"], cells=cells)
    else:
        outs = [gen.build(tape, r, lab, weights=nodes["w"], cells=cells)
                for r in _rows(tape, nodes["z"])]
        coarse, depo = tc.stack([o[0] for o in outs]), tc.stack([o[1] for o in outs])
    return coarse, depo, tape, nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cells", [None, CELLS], ids=["grid", "cells"])
@pytest.mark.parametrize("gen", [PROC, NEURAL], ids=["procedural", "neural"])
def test_generator_batch_rows_equal_single_builds(gen, cells, dtype):
    zs = sample_prior(3, gen.latent_dim, rng_seed=7)
    labels = LABELS if gen.label_dim else None
    batch_c, batch_d, bt, bn = _build_rows(gen, dtype, zs, cells, labels, batched=True)
    loop_c, loop_d, lt, ln = _build_rows(gen, dtype, zs, cells, labels, batched=False)
    shape = (3,) + (gen.geometry.shape if cells is None else (len(cells),))
    assert batch_c.value.shape == batch_d.value.shape == shape
    assert batch_c.value.dtype == dtype
    np.testing.assert_array_equal(batch_c.value, loop_c.value)
    np.testing.assert_array_equal(batch_d.value, loop_d.value)
    for i, z in enumerate(zs):  # and each row is the numpy build of that latent
        if cells is None:
            grid = gen.generate(z, labels, dtype=dtype)
            np.testing.assert_array_equal(batch_c.value[i], grid.coarse_fraction)
            np.testing.assert_array_equal(batch_d.value[i], grid.depo_time)

    if dtype == np.float64:
        gb = bt.backward(_weighted(bt, batch_c, 8) + _weighted(bt, tc.square(batch_d), 9))
        gl = lt.backward(_weighted(lt, loop_c, 8) + _weighted(lt, tc.square(loop_d), 9))
        np.testing.assert_allclose(gb.wrt(bn["z"]), gl.wrt(ln["z"]), rtol=1e-12)
        for k in bn["w"]:
            np.testing.assert_allclose(gb.wrt(bn["w"][k]), gl.wrt(ln["w"][k]), rtol=1e-12,
                                       err_msg=k)
        if "labels" in bn:
            np.testing.assert_allclose(gb.wrt(bn["labels"]), gl.wrt(ln["labels"]),
                                       rtol=1e-12)


NEURAL_LABELLED = NeuralGenerator.random_init(
    NEURAL_GEO, GeneratorDescriptor(latent_dim=6, label_dim=5, base_channels=4,
                                    out_extents=(8, 8, 4)), rng_seed=4)
ROW_LABELS = np.array([[0.1, 0.9, 0.3, 0.7, 0.5],
                       [0.0, 1.0, 0.6, 0.2, 0.8],
                       [0.4, 0.4, 0.9, 0.1, 0.3]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cells", [None, CELLS], ids=["grid", "cells"])
@pytest.mark.parametrize("gen", [PROC, NEURAL_LABELLED], ids=["procedural", "neural"])
def test_generator_batch_per_row_labels_equal_single_builds(gen, cells, dtype):
    zs = sample_prior(3, gen.latent_dim, rng_seed=8)
    outs = []
    for batched in (True, False):
        tape = tc.GraphTape(dtype)
        zn, ln = tape.input(zs), tape.input(ROW_LABELS)
        if batched:
            coarse, depo = gen.build(tape, zn, ln, cells=cells)
        else:
            rows = [gen.build(tape, z, lab, cells=cells)
                    for z, lab in zip(_rows(tape, zn), _rows(tape, ln))]
            coarse, depo = tc.stack([r[0] for r in rows]), tc.stack([r[1] for r in rows])
        outs.append((coarse, depo, tape, zn, ln))
    (bc, bd, bt, bz, bl), (lc, ld, lt, lz, ll) = outs
    np.testing.assert_array_equal(bc.value, lc.value)
    np.testing.assert_array_equal(bd.value, ld.value)
    for i, z in enumerate(zs):  # row i is the build of z[i] with labels[i]
        if cells is None:
            grid = gen.generate(z, ROW_LABELS[i], dtype=dtype)
            np.testing.assert_array_equal(bc.value[i], grid.coarse_fraction)
            np.testing.assert_array_equal(bd.value[i], grid.depo_time)
    if dtype == np.float64:
        gb = bt.backward(_weighted(bt, bc, 8) + _weighted(bt, tc.square(bd), 9))
        gl = lt.backward(_weighted(lt, lc, 8) + _weighted(lt, tc.square(ld), 9))
        np.testing.assert_allclose(gb.wrt(bz), gl.wrt(lz), rtol=1e-12)
        np.testing.assert_allclose(gb.wrt(bl), gl.wrt(ll), rtol=1e-12)


@pytest.mark.parametrize("gen", [PROC, NEURAL_LABELLED], ids=["procedural", "neural"])
@pytest.mark.parametrize("shape", [(2, 5), (3, 4), (1, 3, 5)])
def test_generator_rejects_mismatched_row_labels(gen, shape):
    tape = tc.GraphTape(np.float64)
    z = tape.constant(sample_prior(3, gen.latent_dim, rng_seed=9))
    with pytest.raises(GeneratorError, match="expected 5 labels"):
        gen.build(tape, z, tape.constant(np.full(shape, 0.5)))
    with pytest.raises(GeneratorError, match="expected 5 labels"):  # one latent, rows of labels
        gen.build(tape, tape.constant(np.zeros(gen.latent_dim)),
                  tape.constant(np.full((1, 5), 0.5)))


@pytest.mark.parametrize("gen", [PROC, NEURAL], ids=["procedural", "neural"])
@pytest.mark.parametrize("shape", [(), (1,), (9,), (2, 9), (2, 1, 8), (0, 8)])
def test_generator_rejects_other_latent_shapes(gen, shape):
    shape = tuple(gen.latent_dim if s == 8 else s for s in shape)
    tape = tc.GraphTape(np.float64)
    with pytest.raises(GeneratorError, match="latent shape"):
        gen.build(tape, tape.constant(np.zeros(shape)))


@pytest.mark.parametrize("double", [LinearGenerator, NonFiniteGenerator])
def test_test_doubles_take_a_batch(double):
    A = np.random.default_rng(5).standard_normal((6, 4))
    gen = double(A) if double is LinearGenerator else double(A, nan_step=10)
    zs = np.random.default_rng(6).standard_normal((3, 4))
    tape = tc.GraphTape(np.float64)
    for cells in (None, np.array([4, 0, 4])):
        batch, _ = gen.build(tape, tape.constant(zs), cells=cells)
        for i, z in enumerate(zs):
            one, _ = gen.build(tape, tape.constant(z), cells=cells)
            np.testing.assert_array_equal(batch.value[i], one.value)


# ---------------------------------------------------------------------------
# loss

SEIS_GEO = GridGeometry(nx=8, ny=8, nz=4)
SEIS_GEN = ProceduralGenerator(SEIS_GEO, latent_dim=8, label_dim=0)
SEIS_MODEL = SeismicModel(psf=PsfConfig(kernel_extents=(9, 3, 3)))
SEIS_TRUTH = SEIS_GEN.generate(sample_prior(1, 8, rng_seed=22)[0], dtype=np.float64)
SEIS_OBS = Observations(wells=extract_well_data(SEIS_TRUTH, [(2, 3), (5, 6)]),
                        seismic=SEIS_MODEL.forward(SEIS_TRUTH), seismic_model=SEIS_MODEL)


def test_seismic_batch_rows_equal_single_builds():
    zs = sample_prior(3, 8, rng_seed=30)
    tape = tc.GraphTape(np.float64)
    coarse, _ = SEIS_GEN.build(tape, tape.constant(zs))
    batch = SEIS_MODEL.build(tape, coarse, SEIS_GEO)
    assert batch.value.shape[0] == 3
    for i, z in enumerate(zs):
        one = SEIS_MODEL.build(tape, SEIS_GEN.build(tape, tape.constant(z))[0], SEIS_GEO)
        np.testing.assert_array_equal(batch.value[i], one.value)


def _loss_pair(config, obs, gen, zs, with_z):
    """(value, dz, frozen weights) of the batched loss and of the loop's
    batch mean of per-sample losses, each from a fresh DataLoss."""
    out = []
    for batched in (True, False):
        loss_fn = DataLoss(obs, config, geometry=gen.geometry)
        tape = tc.GraphTape(np.float64)
        zn = tape.input(zs)
        if batched:
            coarse, _ = gen.build(tape, zn, cells=loss_fn.cells)
            total = loss_fn.build(tape, coarse, z=zn if with_z else None)
        else:
            total = None
            for z in _rows(tape, zn):
                coarse, _ = gen.build(tape, z, cells=loss_fn.cells)
                part = loss_fn.build(tape, coarse, z=z if with_z else None)
                total = part if total is None else total + part
            total = (1.0 / len(zs)) * total
        out.append((float(total.value), tape.backward(total).wrt(zn), loss_fn._frozen))
    return out


@pytest.mark.parametrize("config", [
    DataLossConfig(),
    DataLossConfig(metric="absolute", lambda_z=0.0),
    DataLossConfig(use_seismic=True),
    DataLossConfig(use_seismic=True, metric="absolute", well_weight=2.0),
    DataLossConfig(use_wells=False, use_seismic=True),
], ids=["wells", "wells-abs", "wells+seismic", "wells+seismic-fixed", "seismic"])
def test_data_loss_batch_mean_equals_loop(config):
    zs = sample_prior(3, 8, rng_seed=31)
    (bv, bg, bw), (lv, lg, lw) = _loss_pair(config, SEIS_OBS, SEIS_GEN, zs, with_z=True)
    assert bw == lw  # weights frozen from the first sample either way
    np.testing.assert_allclose(bv, lv, rtol=1e-12)
    np.testing.assert_allclose(bg, lg, rtol=1e-12)


@pytest.mark.parametrize("config", [
    DataLossConfig(),
    DataLossConfig(metric="absolute", lambda_z=0.0),
    DataLossConfig(use_seismic=True),
    DataLossConfig(use_seismic=True, metric="absolute", well_weight=2.0),
    DataLossConfig(use_wells=False, use_seismic=True),
], ids=["wells", "wells-abs", "wells+seismic", "wells+seismic-fixed", "seismic"])
def test_data_loss_rows_equal_single_losses(config):
    # each row against a single build with its own DataLoss, over two
    # evaluations, so per-row automatic weights freeze at the first one
    starts = sample_prior(3, 8, rng_seed=34)
    moved = starts + 0.3 * sample_prior(3, 8, rng_seed=35)
    rows_fn = DataLoss(SEIS_OBS, config, geometry=SEIS_GEO)
    singles = [DataLoss(SEIS_OBS, config, geometry=SEIS_GEO) for _ in starts]
    for zs in (starts, moved):
        tape = tc.GraphTape(np.float64)
        zn = tape.input(zs)
        coarse, _ = SEIS_GEN.build(tape, zn, cells=rows_fn.cells)
        total = rows_fn.build(tape, coarse, z=zn, rows=True)
        assert total.value.shape == (3,)
        grad = tape.backward(total).wrt(zn)
        for i, (z, fn) in enumerate(zip(zs, singles)):
            tape = tc.GraphTape(np.float64)
            zi = tape.input(z)
            one = fn.build(tape, SEIS_GEN.build(tape, zi, cells=fn.cells)[0], z=zi)
            np.testing.assert_allclose(total.value[i], float(one.value), rtol=1e-12)
            np.testing.assert_allclose(grad[i], tape.backward(one).wrt(zi), rtol=1e-12)
    if config.use_wells and config.use_seismic and config.well_weight is None:
        assert len(set(rows_fn._frozen[0])) == 3  # a weight per row


def test_data_loss_full_grid_batch_with_cells_available():
    # a whole-grid batch is accepted even when the loss could read cells only
    loss_fn = DataLoss(SEIS_OBS, DataLossConfig(), geometry=SEIS_GEO)
    zs = sample_prior(2, 8, rng_seed=32)
    tape = tc.GraphTape(np.float64)
    grid, _ = SEIS_GEN.build(tape, tape.constant(zs))
    at_cells, _ = SEIS_GEN.build(tape, tape.constant(zs), cells=loss_fn.cells)
    np.testing.assert_array_equal(loss_fn.residuals(tape, grid)["well"].value,
                                  loss_fn.residuals(tape, at_cells)["well"].value)


@pytest.mark.parametrize("seismic", [False, True], ids=["wells", "wells+seismic"])
def test_gaussian_loglik_batch_sums_rows(seismic):
    obs = SEIS_OBS if seismic else Observations(wells=SEIS_OBS.wells)
    build = gaussian_data_loglik(SEIS_GEN, obs, 0.3)
    zs = sample_prior(4, 8, rng_seed=33)
    tape = tc.GraphTape(np.float64)
    zn = tape.input(zs)
    batch = build(tape, zn)
    gb = tape.backward(batch).wrt(zn)
    tape = tc.GraphTape(np.float64)
    zn = tape.input(zs)
    loop = None
    for z in _rows(tape, zn):
        part = build(tape, z)
        loop = part if loop is None else loop + part
    gl = tape.backward(loop).wrt(zn)
    np.testing.assert_allclose(float(batch.value), float(loop.value), rtol=1e-12)
    np.testing.assert_allclose(gb, gl, rtol=1e-12)


# ---------------------------------------------------------------------------
# methods, against their per-sample loops

def _flow_loop_objective(flow, cfg, dim, loglik):
    """The per-sample ELBO loop that the batched step replaced."""
    def neg_elbo(tape, wnodes, step):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(cfg.rng_seed), 17, step))))
        elbo = None
        for _ in range(cfg.batch):
            u = rng.standard_normal(dim)
            z, logdet = flow.transform(tape, tape.constant(u), wnodes)
            part = -0.5 * tc.sum_all(tc.square(z)) + logdet \
                + tape.constant(0.5 * np.sum(u * u))
            if loglik is not None:
                part = part + loglik(tape, z)
            elbo = part if elbo is None else elbo + part
        return -((1.0 / cfg.batch) * elbo)
    return neg_elbo


def _wells_case():
    gen = ProceduralGenerator(GridGeometry(nx=16, ny=16, nz=4), latent_dim=8, label_dim=0)
    truth = gen.generate(sample_prior(1, 8, rng_seed=21)[0], dtype=np.float64)
    return gen, Observations(wells=extract_well_data(truth, [(2, 3), (8, 12), (13, 5)]))


@pytest.mark.parametrize("with_data", [True, False], ids=["wells", "prior-only"])
def test_variational_infer_matches_per_sample_loop(with_data):
    gen, obs = _wells_case()
    loglik = gaussian_data_loglik(gen, obs, 0.3) if with_data else None
    cfg = FlowConfig(n_layers=3, hidden=(8,), steps=25, batch=5, lr=0.01, n_posterior=6,
                     rng_seed=14)
    result = variational_infer(loglik, 8, cfg)
    ref = FlowModel(8, cfg)
    history, halted = descend(_flow_loop_objective(ref, cfg, 8, loglik), ref.weights,
                              np.float64, cfg.steps, cfg.lr, cfg.lr_schedule)
    assert not halted and not result.halted
    np.testing.assert_allclose(result.elbo_history, -np.asarray(history), rtol=1e-12)
    for k, v in ref.weights.items():
        np.testing.assert_allclose(result.flow.weights[k], v, rtol=1e-12, err_msg=k)
    np.testing.assert_allclose(result.posterior, ref.sample(cfg.n_posterior, cfg.rng_seed),
                               rtol=1e-12)


def _amortized_loop_objective(net, cfg, generator, loss_fn, noise_dim):
    """The per-sample inference-net objective that the batched step replaced."""
    def objective(tape, wnodes, step):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(cfg.rng_seed), 29, step))))
        total = None
        latents = []
        for _ in range(cfg.batch):
            eps = rng.standard_normal(noise_dim)
            z = net.apply(tape, tape.constant(eps), wnodes)
            latents.append(z)
            coarse, _ = generator.build(tape, z, cells=loss_fn.cells)
            part = loss_fn.build(tape, coarse, z=z)
            total = part if total is None else total + part
        total = (1.0 / cfg.batch) * total
        if cfg.collapse_reg > 0:
            mean = latents[0]
            for z in latents[1:]:
                mean = mean + z
            mean = (1.0 / cfg.batch) * mean
            var = None
            for z in latents:
                part = tc.square(z - mean)
                var = part if var is None else var + part
            var = (1.0 / max(cfg.batch - 1, 1)) * var
            reg = (tc.mean_all(tc.square(mean))
                   + tc.mean_all(tc.square(tc.sqrt(var + 1e-12) - 1.0)))
            total = total + cfg.collapse_reg * reg
        return total
    return objective


@pytest.mark.parametrize("collapse_reg", [0.0, 0.1])
@pytest.mark.parametrize("seismic", [False, True], ids=["wells", "wells+seismic"])
def test_train_inference_network_matches_per_sample_loop(collapse_reg, seismic):
    if seismic:
        gen, obs, steps = SEIS_GEN, SEIS_OBS, 4
    else:
        (gen, obs), steps = _wells_case(), 20
    cfg = InferenceNetConfig(hidden=(8,), steps=steps, batch=3, lr=1e-2,
                             collapse_reg=collapse_reg,
                             loss=DataLossConfig(use_seismic=seismic), rng_seed=15)
    result = train_inference_network(gen, obs, cfg)
    ref = InferenceNet(gen.latent_dim, gen.latent_dim, cfg.hidden, rng_seed=cfg.rng_seed)
    loss_fn = DataLoss(obs, cfg.loss, geometry=gen.geometry)
    history, halted = descend(
        _amortized_loop_objective(ref, cfg, gen, loss_fn, gen.latent_dim), ref.weights,
        np.float64, cfg.steps, cfg.lr)
    assert not halted and not result.halted
    np.testing.assert_allclose(result.loss_history, history, rtol=1e-12)
    for k, v in ref.weights.items():
        np.testing.assert_allclose(result.net.weights[k], v, rtol=1e-12, err_msg=k)


def _noise(seed, stream, i, dim):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, i))))
    return rng.standard_normal(dim)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_flow_sample_rows_equal_single_pushes(n):
    flow = FlowModel(5, FlowConfig(n_layers=3, hidden=(8,), rng_seed=3))
    draws = flow.sample(n, rng_seed=9)
    assert draws.shape == (n, 5)
    for i in range(n):
        np.testing.assert_array_equal(draws[i], flow.push(_noise(9, 13, i, 5)))
    with pytest.raises(GeneratorError, match="n >= 1"):
        flow.sample(0)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_inference_net_sample_rows_equal_single_pushes(n):
    net = InferenceNet(4, 6, hidden=(8, 8), rng_seed=2)
    draws = net.sample(n, rng_seed=9)
    assert draws.shape == (n, 6)
    for i in range(n):
        np.testing.assert_array_equal(draws[i], net.push(_noise(9, 23, i, 4)))
    with pytest.raises(GeneratorError, match="n >= 1"):
        net.sample(0)


def test_flow_batch_logdet_sums_rows():
    flow = FlowModel(4, FlowConfig(n_layers=4, hidden=(8,), rng_seed=5))
    us = np.random.default_rng(6).standard_normal((5, 4))
    tape = tc.GraphTape(np.float64)
    _, batch = flow.transform(tape, tape.constant(us))
    rows = [float(flow.transform(tape, tape.constant(u))[1].value) for u in us]
    np.testing.assert_allclose(float(batch.value), sum(rows), rtol=1e-12)
