"""Generators evaluated at a list of cells against the full grid gathered there.

``build(..., cells=c)`` must give exactly ``take(build(...), c)``, and the
likelihoods that use it must agree with the full-grid path, for unsorted cell
lists with repeats. The neural generator runs its last block's conv2 and its
head only near the cells, in ``conv3d``'s order, so it stays exact wherever
BLAS rounds each column of a product as in a wider one; a wider generator
agrees to round-off.
"""

import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fluvinv.tensors as tc
from fluvinv.generators import (
    GeneratorDescriptor,
    GeneratorError,
    NeuralGenerator,
    ProceduralGenerator,
    _cell_coordinates,
    neutral_labels,
    sample_prior,
)
from fluvinv.geophysics import PsfConfig, SeismicModel
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLoss,
    DataLossConfig,
    InversionError,
    LatentOptimizeConfig,
    Observations,
    PivotalTuneConfig,
    gaussian_data_loglik,
    latent_optimize,
    pivotal_tune,
)
from fluvinv.inversion.loss import well_mae
from fluvinv.survey import extract_well_data
from helpers import (EXACT, ROUND_OFF, LinearGenerator, NonFiniteGenerator, assert_matches,
                     round_off)

GEO = GridGeometry(nx=12, ny=9, nz=4)
PROC = ProceduralGenerator(GEO, latent_dim=8)
NEURAL_GEO = GridGeometry(nx=8, ny=8, nz=4)
NEURAL = NeuralGenerator.random_init(
    NEURAL_GEO, GeneratorDescriptor(latent_dim=6, base_channels=4, out_extents=(8, 8, 4)),
    rng_seed=3)
TRUTH = PROC.generate(sample_prior(1, 8, rng_seed=0)[0], dtype=np.float64)
WELLS = extract_well_data(TRUTH, [(2, 3), (7, 1), (10, 8)])

SETTINGS = settings(max_examples=25, deadline=None)


def cell_lists(geometry):
    """Unsorted flat cell indices with repeats allowed."""
    return st.lists(st.integers(0, geometry.n_cells - 1), min_size=1, max_size=60)


def _weighted_sum(tape, coarse, depo, seed):
    """A scalar that reads every gathered value of both channels."""
    rng = np.random.default_rng(seed)
    n = coarse.value.size
    return (tc.sum_all(tape.constant(rng.standard_normal(n)) * coarse)
            + tc.sum_all(tape.constant(rng.standard_normal(n)) * tc.square(depo)))


def _procedural(dtype, z, labels, cells):
    """(coarse, depo, tape, input nodes) of a build at ``cells`` (None: full grid)."""
    tape = tc.GraphTape(dtype)
    nodes = {"z": tape.input(z), "labels": tape.input(labels),
             "maps": tape.input(PROC.weights()["maps"])}
    coarse, depo = PROC.build(tape, nodes["z"], nodes["labels"],
                              weights={"maps": nodes["maps"]}, cells=cells)
    return coarse, depo, tape, nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@SETTINGS
@given(cells=cell_lists(GEO), seed=st.integers(0, 2 ** 16),
       labels=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_procedural_cells_equal_gathered_full_grid(dtype, cells, seed, labels):
    z = sample_prior(1, 8, rng_seed=seed)[0]
    labels = np.asarray(labels)
    at_c, at_d, at_tape, at_nodes = _procedural(dtype, z, labels, np.asarray(cells))
    full_c, full_d, full_tape, full_nodes = _procedural(dtype, z, labels, None)
    full_c, full_d = tc.take(full_c, cells), tc.take(full_d, cells)

    assert at_c.value.shape == at_d.value.shape == (len(cells),)
    assert at_c.value.dtype == dtype
    np.testing.assert_array_equal(at_c.value, full_c.value)
    np.testing.assert_array_equal(at_d.value, full_d.value)

    if dtype == np.float64:
        g_at = at_tape.backward(_weighted_sum(at_tape, at_c, at_d, seed))
        g_full = full_tape.backward(_weighted_sum(full_tape, full_c, full_d, seed))
        for name in ("z", "labels", "maps"):
            np.testing.assert_allclose(g_at.wrt(at_nodes[name]),
                                       g_full.wrt(full_nodes[name]), rtol=1e-12)


def _check_neural_pair(gen, dtype, cells, rows=None, seed=0, exact=True):
    """A build at ``cells`` against the full-grid build gathered there: the
    values of both channels, and the gradients of a random projection of
    them with respect to z, the labels of a conditioned generator (per row
    for a batch) and every weight.

    Where the cells build's sums round as conv3d's do (see
    tests/test_conv3d.py), values match bit for bit and gradients to
    float64 round-off (bit for bit in float32). A generator too wide for
    that agrees to round-off: values in [0, 1] to 4 ulps of their largest
    entry, gradients to 8."""
    z = sample_prior(rows or 1, gen.latent_dim, rng_seed=seed)
    z = z if rows else z[0]
    labels = None
    if gen.label_dim:
        labels = np.linspace(0.1, 0.9, (rows or 1) * gen.label_dim).reshape(rows or 1, -1)
        labels = labels if rows else labels[0]
    cells = np.asarray(cells)
    gather = cells if rows is None else np.arange(rows)[:, None] * gen.geometry.n_cells + cells
    out = []
    for at_cells in (True, False):
        tape = tc.GraphTape(dtype)
        nodes = {"z": tape.input(z)}
        if labels is not None:
            nodes["labels"] = tape.input(labels)
        weights = {k: tape.input(v) for k, v in gen.weights().items()}
        built = gen.build(tape, nodes["z"], nodes.get("labels"), weights=weights,
                          cells=cells if at_cells else None)
        if not at_cells:
            built = [tc.take(node, gather) for node in built]
        rng = np.random.default_rng(seed)
        loss = (tc.sum_all(built[0] * tape.constant(rng.normal(size=built[0].shape)))
                + tc.sum_all(tc.square(built[1]) * tape.constant(rng.normal(size=built[1].shape))))
        grads = tape.backward(loss)
        out.append(({"coarse": built[0].value, "depo": built[1].value},
                    {k: grads.wrt(node) for k, node in (nodes | weights).items()}))
    (values, grads), (want_values, want_grads) = out
    assert values["coarse"].shape == gather.shape
    if exact:
        assert_matches(values, want_values, EXACT)
        assert_matches(grads, want_grads, EXACT if dtype == np.float32 else ROUND_OFF[np.float64])
    else:
        assert_matches(values, want_values, round_off(4))
        assert_matches(grads, want_grads, round_off(8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@SETTINGS
@given(cells=cell_lists(NEURAL_GEO), seed=st.integers(0, 2 ** 16))
def test_neural_cells_equal_gathered_full_grid(dtype, cells, seed):
    _check_neural_pair(NEURAL, dtype, cells, seed=seed)


def _flat(geometry, x, y, z):
    return (z * geometry.ny + y) * geometry.nx + x


def _edge_cells(geometry):
    """Cell lists whose taps reach past the grid, a single cell (one output
    column, which conv3d_at runs as two) and repeats."""
    nx, ny, nz = geometry.nx, geometry.ny, geometry.nz
    cell = functools.partial(_flat, geometry)
    return {
        "corners": [cell(x, y, z) for z in (0, nz - 1) for y in (0, ny - 1) for x in (0, nx - 1)],
        "faces": [cell(0, 3, 1), cell(nx - 1, 4, 2), cell(2, 0, 1), cell(5, ny - 1, 2),
                  cell(3, 3, 0), cell(4, 2, nz - 1)],
        "single": [185],
        "single-corner": [cell(nx - 1, ny - 1, nz - 1)],
        "repeats": [17, 0, 17, 17, 185, 0],
    }


def _neural(geometry, rng_seed, **descriptor):
    return NeuralGenerator.random_init(
        geometry, GeneratorDescriptor(latent_dim=6, out_extents=(geometry.nx, geometry.ny,
                                                                  geometry.nz), **descriptor),
        rng_seed=rng_seed)


NEURAL_VARIANTS = {
    # (generator, batch rows, exact): "default-widths" has the default
    # descriptor's channels, whose last block and head contract over
    # kx*C = 12; "wide" contracts over 18, where the OpenBLAS kernels
    # measured round some columns of a product apart from the rest, so it
    # agrees to round-off only. "conditioned-rows" has per-row labels.
    "default-widths": (_neural(NEURAL_GEO, 7), None, True),
    "one-block": (_neural(NEURAL_GEO, 4, base_channels=4, num_blocks=1), None, True),
    "two-blocks": (NEURAL, None, True),
    "three-blocks": (_neural(GridGeometry(nx=8, ny=8, nz=8), 5, base_channels=8, num_blocks=3),
                     None, True),
    "conditioned-rows": (_neural(NEURAL_GEO, 6, label_dim=3, base_channels=8), 3, True),
    "wide": (_neural(NEURAL_GEO, 8, base_channels=24), None, False),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cell_set", sorted(_edge_cells(NEURAL_GEO)))
@pytest.mark.parametrize("variant", sorted(NEURAL_VARIANTS))
def test_neural_cells_on_edges_equal_gathered_full_grid(variant, cell_set, dtype):
    gen, rows, exact = NEURAL_VARIANTS[variant]
    cells = _edge_cells(gen.geometry)[cell_set]
    _check_neural_pair(gen, dtype, cells, rows=rows, seed=len(cells), exact=exact)


@pytest.mark.parametrize("variant", sorted(NEURAL_VARIANTS))
def test_neural_cells_build_runs_last_conv2_and_head_at_cells(variant, monkeypatch):
    # the last block's conv2 and the head never run on the full grid: they
    # are conv3d_at records, one each per row
    gen, rows, _ = NEURAL_VARIANTS[variant]
    last = f"block{gen.descriptor.num_blocks - 1}.conv2.w"
    conv3d, conv3d_at, calls = tc.conv3d, tc.conv3d_at, []

    def tracked(op, fn):
        def call(x, w, *rest):
            calls.append((op, w))
            return fn(x, w, *rest)
        return call

    monkeypatch.setattr(tc, "conv3d", tracked("conv3d", conv3d))
    monkeypatch.setattr(tc, "conv3d_at", tracked("conv3d_at", conv3d_at))
    for cells in (np.array([0, 185, 17, 17]), None):
        calls.clear()
        tape = tc.GraphTape(np.float32)
        weights = {k: tape.constant(v) for k, v in gen.weights().items()}
        z = sample_prior(rows or 1, gen.latent_dim, rng_seed=2)
        gen.build(tape, tape.constant(z if rows else z[0]), weights=weights, cells=cells)
        late = [op for op, w in calls if w is weights[last] or w is weights["head.w"]]
        if cells is None:
            assert late == ["conv3d"] * 2 * (rows or 1)
        else:
            assert late == ["conv3d_at"] * 2 * (rows or 1)


def test_neural_cells_build_tape_is_freed_by_reference_counting():
    gc.disable()
    try:
        tape = tc.GraphTape(np.float64)
        weights = {k: tape.input(v) for k, v in NEURAL.weights().items()}
        coarse, depo = NEURAL.build(tape, tape.input(np.zeros(6)), weights=weights,
                                    cells=np.array([3, 50, 50]))
        ref = weakref.ref(tape)
        del tape, weights, coarse, depo
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("gen", [PROC, NEURAL], ids=["procedural", "neural"])
@pytest.mark.parametrize("cells", [
    np.zeros((2, 2), dtype=np.intp),
    np.array([0.0, 1.0]),
    np.array([True, False]),
    np.array([-1, 0]),
    "n_cells",
], ids=["2d", "float", "bool", "negative", "past_end"])
def test_invalid_cells_rejected(gen, cells):
    if isinstance(cells, str):
        cells = np.array([0, gen.geometry.n_cells])
    tape = tc.GraphTape(np.float64)
    with pytest.raises(GeneratorError, match="cell"):
        gen.build(tape, tape.constant(np.zeros(gen.latent_dim)), cells=cells)


@pytest.mark.parametrize("gen", [PROC, NEURAL], ids=["procedural", "neural"])
def test_bad_cells_raise_on_every_call(gen):
    cells = np.array([0, gen.geometry.n_cells])
    for _ in range(3):
        tape = tc.GraphTape(np.float64)
        with pytest.raises(GeneratorError, match="cell"):
            gen.build(tape, tape.constant(np.zeros(gen.latent_dim)), cells=cells)


def test_cells_changed_in_place_get_fresh_coordinates():
    z = sample_prior(1, 8, rng_seed=4)[0]
    grid = PROC.generate(z, dtype=np.float64).coarse_fraction.reshape(-1)
    cells = np.array([3, 50, 200, 411])
    for _ in range(2):
        for flat in ([3, 50, 200, 411], [7, 7, 0, 100]):
            cells[:] = flat
            tape = tc.GraphTape(np.float64)
            coarse, _ = PROC.build(tape, tape.constant(z), cells=cells)
            np.testing.assert_array_equal(coarse.value, grid[flat])


def test_cell_coordinates_are_read_only():
    cells, x, y, layer = _cell_coordinates(np.array([5, 130, 431]), GEO)
    for v in (cells, x, y, layer):
        assert not v.flags.writeable
    np.testing.assert_array_equal(layer, [0, 1, 3])
    assert _cell_coordinates(None, GEO)[0] is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("cells", [None, np.array([0, 17, 17, 255, 100])], ids=["grid", "cells"])
def test_neural_coarse_only_build_equals_coarse_of_both(dtype, rows, cells):
    z = sample_prior(rows or 1, 6, rng_seed=8)
    z = z if rows else z[0]
    out = []
    for depo in (True, False):
        tape = tc.GraphTape(dtype)
        zn = tape.input(z)
        wn = {k: tape.input(v) for k, v in NEURAL.weights().items()}
        coarse, d = NEURAL.build(tape, zn, weights=wn, cells=cells, depo=depo)
        assert (d is None) == (not depo)
        g = tape.backward(tc.sum_all(tc.square(coarse)))
        out.append((coarse.value, g.wrt(zn), g.wrt(wn["head.w"]), g.wrt(wn["dense.w"])))
    for want, got in zip(*out):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cells", [None, np.array([2, 0, 2])], ids=["grid", "cells"])
@pytest.mark.parametrize("make", [lambda A: LinearGenerator(A),
                                  lambda A: NonFiniteGenerator(A, nan_step=9)],
                         ids=["linear", "non_finite"])
def test_linear_test_generators_take_depo(make, cells):
    gen = make(np.arange(12.0).reshape(3, 4))
    tape = tc.GraphTape(np.float64)
    z = tape.constant(np.ones((2, 4)))
    both = gen.build(tape, z, cells=cells)
    coarse, depo = gen.build(tape, z, cells=cells, depo=False)
    assert depo is None
    np.testing.assert_array_equal(coarse.value, both[0].value)


def _well_loss(z, at_cells, config):
    loss = DataLoss(Observations(wells=WELLS), config, geometry=GEO)
    tape = tc.GraphTape(np.float64)
    zn = tape.input(z)
    coarse, _ = PROC.build(tape, zn, cells=loss.cells if at_cells else None)
    value = loss.build(tape, coarse, z=zn)
    return float(value.value), tape.backward(value).wrt(zn)


@pytest.mark.parametrize("metric", ["squared", "absolute"])
@SETTINGS
@given(seed=st.integers(0, 2 ** 16))
@example(seed=909)
@example(seed=2363)
@example(seed=45179)  # entries 1e-12 apart, relative to their own size
def test_data_loss_at_cells_equals_full_grid(metric, seed):
    z = sample_prior(1, 8, rng_seed=seed)[0]
    config = DataLossConfig(metric=metric, lambda_z=1e-3)
    v_cells, g_cells = _well_loss(z, True, config)
    v_full, g_full = _well_loss(z, False, config)
    assert v_cells == v_full
    # the two builds sum over different cell sets, so an entry far smaller
    # than the others can carry round-off above its own size
    assert_matches(g_cells, g_full, ROUND_OFF[np.float64])


@pytest.mark.parametrize("seed", [909, 2363, 45179])
def test_gradient_comparison_rejects_a_perturbed_entry(seed):
    z = sample_prior(1, 8, rng_seed=seed)[0]
    _, g = _well_loss(z, False, DataLossConfig(metric="squared", lambda_z=1e-3))
    for i in (int(np.argmax(np.abs(g))), int(np.argmin(np.abs(g)))):
        bent = g.copy()
        bent[i] += 1e-10 * np.max(np.abs(g))
        with pytest.raises(AssertionError):
            assert_matches(bent, g, ROUND_OFF[np.float64])


@SETTINGS
@given(seed=st.integers(0, 2 ** 16))
@example(seed=951)  # each failed an elementwise rtol 1e-12 comparison
@example(seed=2678)
@example(seed=3345)
@example(seed=3902)
def test_gaussian_loglik_at_cells_equals_full_grid(seed):
    z = sample_prior(1, 8, rng_seed=seed)[0]
    sigma = 0.05
    loglik = gaussian_data_loglik(PROC, Observations(wells=WELLS), sigma)
    tape = tc.GraphTape(np.float64)
    zn = tape.input(z)
    value = loglik(tape, zn)
    g_cells = tape.backward(value).wrt(zn)

    tape = tc.GraphTape(np.float64)
    zn = tape.input(z)
    coarse, _ = PROC.build(tape, zn, labels=tape.constant(neutral_labels()))
    resid = tc.take(coarse, WELLS.flat_cell_indices()) - tape.constant(WELLS.values())
    ref = (-0.5 / sigma ** 2) * tc.sum_all(tc.square(resid))
    g_full = tape.backward(ref).wrt(zn)
    assert float(value.value) == float(ref.value)
    assert_matches(g_cells, g_full, ROUND_OFF[np.float64])


def test_cells_follow_the_seismic_term():
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0, kernel_extents=(9, 1, 1)))
    obs = Observations(wells=WELLS, seismic=model.forward(TRUTH), seismic_model=model)
    wells_only = DataLoss(obs, DataLossConfig())
    np.testing.assert_array_equal(wells_only.cells, WELLS.flat_cell_indices())
    assert DataLoss(obs, DataLossConfig(use_seismic=True)).cells is None
    assert DataLoss(obs, DataLossConfig(use_wells=False, use_seismic=True)).cells is None


def test_residuals_reject_other_shapes():
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0, kernel_extents=(9, 1, 1)))
    obs = Observations(wells=WELLS, seismic=model.forward(TRUTH), seismic_model=model)
    n = len(WELLS.flat_cell_indices())
    tape = tc.GraphTape(np.float64)
    with pytest.raises(InversionError, match="shape"):
        DataLoss(obs, DataLossConfig()).residuals(tape, tape.constant(np.zeros(n + 1)))
    with pytest.raises(InversionError, match="shape"):
        DataLoss(obs, DataLossConfig()).residuals(tape, tape.constant(np.zeros((4, 9, 11))))
    # with the seismic term on the loss reads the whole grid
    with pytest.raises(InversionError, match="shape"):
        DataLoss(obs, DataLossConfig(use_seismic=True)).residuals(
            tape, tape.constant(np.zeros(n)))


def _row_well_maes(gen, zs, wells, labels, dtype):
    """Well MAE of each row of one batched build at the well cells."""
    tape = tc.GraphTape(dtype)
    labels = None if labels is None else tape.constant(labels)
    coarse, _ = gen.build(tape, tape.constant(zs), labels, cells=wells.flat_cell_indices())
    return np.mean(np.abs(coarse.value - wells.values()), axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("labels", [None, np.array([0.1, 0.9, 0.3, 0.7, 0.5])])
def test_generator_well_mae_equals_full_grid(dtype, labels):
    zs = sample_prior(3, 8, rng_seed=4)
    for z, mae in zip(zs, _row_well_maes(PROC, zs, WELLS, labels, dtype)):
        assert mae == well_mae(PROC.generate(z, labels, dtype=dtype), WELLS)
    wells = extract_well_data(NEURAL.generate(np.zeros(6)), [(1, 2), (6, 5)])
    zs = sample_prior(3, 6, rng_seed=4)
    for z, mae in zip(zs, _row_well_maes(NEURAL, zs, wells, None, dtype)):
        assert mae == well_mae(NEURAL.generate(z, dtype=dtype), wells)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("optimize_labels", [False, True], ids=["no-labels", "labels"])
def test_restart_well_mae_equals_full_grid(dtype, optimize_labels):
    # each restart's well MAE comes from a build at the well cells
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=3, lr=0.05,
                               optimize_labels=optimize_labels, dtype=dtype, rng_seed=4)
    result = latent_optimize(PROC, Observations(wells=WELLS), cfg)
    for r in result.restarts:
        assert (r.labels is not None) == optimize_labels
        expected = well_mae(PROC.generate(r.z, r.labels, dtype=np.dtype(dtype)), WELLS)
        assert r.well_mae == expected


@pytest.mark.parametrize("mode", ["shared", "per_pivot"])
def test_tuning_well_maes_equal_full_grid(mode):
    # mae_before and mae_after come from one build of all pivots at the well
    # cells per generator, at the tuning dtype
    cases = [(PROC, WELLS),
             (NEURAL, extract_well_data(NEURAL.generate(np.zeros(6)), [(1, 2), (6, 5)]))]
    for (gen, wells), dtype in itertools.product(cases, ("float32", "float64")):
        pivots = sample_prior(3, gen.latent_dim, rng_seed=4)
        cfg = PivotalTuneConfig(steps=2, lr=1e-2, anchors_per_step=2, mode=mode, rng_seed=5,
                                dtype=dtype)
        result = pivotal_tune(gen, pivots, Observations(wells=wells), cfg)
        for i, z in enumerate(pivots):
            tuned = result.generators[i if mode == "per_pivot" else 0]
            assert result.mae_before[i] == well_mae(gen.generate(z, dtype=dtype), wells)
            assert result.mae_after[i] == well_mae(tuned.generate(z, dtype=dtype), wells)
