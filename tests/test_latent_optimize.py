"""Latent optimization: convex oracle, stationarity, self-inversion, bookkeeping,
and the row blocks against the one-restart-at-a-time reference loop."""

import math

import numpy as np
import pytest

import fluvinv.inversion.optimize as opt
import fluvinv.tensors as tc
from fluvinv.generators import (
    GeneratorDescriptor,
    NeuralGenerator,
    ProceduralGenerator,
    sample_prior,
    weights_fingerprint,
)
from fluvinv.geophysics import PsfConfig, SeismicModel
from fluvinv.grids import GridGeometry
from fluvinv.inversion import (
    DataLossConfig,
    InversionError,
    LatentOptimizeConfig,
    Observations,
    latent_optimize,
)
from fluvinv.survey import extract_well_data
from helpers import LinearGenerator, NonFiniteGenerator, run_restart_reference


def make_linear_case(seed=0, m=6, d=4):
    rng = np.random.default_rng(seed)
    A = 0.05 * rng.standard_normal((m, d))
    gen = LinearGenerator(A)
    z_true = rng.standard_normal(d)
    truth = gen.generate(z_true)
    wells = extract_well_data(truth, [(i, 0) for i in range(m)])
    return gen, z_true, Observations(wells=wells)


def test_linear_generator_converges_to_machine_floor():
    gen, _, obs = make_linear_case()
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=800, lr=0.05,
                               loss=DataLossConfig(lambda_z=0.0), rng_seed=1)
    result = latent_optimize(gen, obs, cfg)
    for r in result.restarts:
        assert r.loss_history[-1] < 1e-8


def test_start_at_truth_stays_at_zero_loss():
    geometry = GridGeometry(nx=16, ny=16, nz=4)
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=0)
    z_true = np.zeros(8)  # sample_prior(seed, index 0) is replaced below
    truth = gen.generate(z_true, dtype=np.float64)
    wells = extract_well_data(truth, [(3, 3), (12, 9)])
    obs = Observations(wells=wells)

    # every restart starts from z_true
    cfg = LatentOptimizeConfig(n_restarts=1, iterations=25, lr=0.01,
                               loss=DataLossConfig(lambda_z=0.0), rng_seed=0)
    import fluvinv.inversion.optimize as opt

    original = opt.sample_prior
    opt.sample_prior = lambda n, d, s: np.tile(z_true, (n, 1))
    try:
        result = latent_optimize(gen, obs, cfg)
    finally:
        opt.sample_prior = original
    assert np.all(result.restarts[0].loss_history < 1e-20)
    assert result.restarts[0].well_mae < 1e-12


def test_self_inversion_four_wells_success_rate():
    from fluvinv.survey import PlacementPolicy, StagePolicy, place_wells

    geometry = GridGeometry(nx=32, ny=32, nz=8)
    gen = ProceduralGenerator(geometry, latent_dim=16, label_dim=0)
    z_true = sample_prior(1, 16, rng_seed=100)[0]
    truth = gen.generate(z_true, dtype=np.float64)
    policy = PlacementPolicy(
        legacy=StagePolicy(count=4, exclusion_m=300.0, ramp_m=600.0),
        extra=StagePolicy(count=0, exclusion_m=150.0, ramp_m=300.0),
        legacy_in_stage2=StagePolicy(count=0, exclusion_m=100.0, ramp_m=200.0))
    legacy, _ = place_wells([truth.coarse_fraction.mean(axis=0)], policy, rng_seed=100)
    wells = extract_well_data(truth, legacy)
    obs = Observations(wells=wells)
    cfg = LatentOptimizeConfig(n_restarts=10, iterations=2000, lr=0.15,
                               lr_schedule="cosine",
                               loss=DataLossConfig(lambda_z=1e-3, metric="absolute"),
                               rng_seed=3)
    result = latent_optimize(gen, obs, cfg)
    success = np.mean(result.well_maes() <= 0.01)
    assert success >= 0.8


def test_loss_windows_mostly_non_increasing():
    geometry = GridGeometry(nx=16, ny=16, nz=4)
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=0)
    truth = gen.generate(sample_prior(1, 8, rng_seed=4)[0], dtype=np.float64)
    wells = extract_well_data(truth, [(2, 2), (13, 11), (7, 14)])
    cfg = LatentOptimizeConfig(n_restarts=1, iterations=300, lr=0.02, rng_seed=5)
    result = latent_optimize(gen, Observations(wells=wells), cfg)
    h = result.restarts[0].loss_history
    window = 50
    checks = [h[i + window] <= h[i] for i in range(len(h) - window)]
    assert np.mean(checks) >= 0.95


def test_history_has_no_gaps_and_weights_untouched():
    gen, _, obs = make_linear_case(seed=2)
    fp_before = weights_fingerprint(gen.weights()) if gen.weights() else None
    cfg = LatentOptimizeConfig(n_restarts=3, iterations=40, rng_seed=6)
    result = latent_optimize(gen, obs, cfg)
    for r in result.restarts:
        assert len(r.loss_history) == cfg.iterations + 1
    if fp_before is not None:
        assert weights_fingerprint(gen.weights()) == fp_before


def test_restarts_worker_count_independent():
    gen, _, obs = make_linear_case(seed=3)
    cfg1 = LatentOptimizeConfig(n_restarts=4, iterations=30, rng_seed=7, threads=1)
    cfg2 = LatentOptimizeConfig(n_restarts=4, iterations=30, rng_seed=7, threads=2)
    a = latent_optimize(gen, obs, cfg1)
    b = latent_optimize(gen, obs, cfg2)
    for ra, rb in zip(a.restarts, b.restarts):
        np.testing.assert_array_equal(ra.z, rb.z)
        np.testing.assert_array_equal(ra.loss_history, rb.loss_history)


def test_ball_projection_enforced():
    gen, _, obs = make_linear_case(seed=4)
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=50, ball_radius=0.1, rng_seed=8)
    result = latent_optimize(gen, obs, cfg)
    cap = 0.1 * np.sqrt(gen.latent_dim)
    for r in result.restarts:
        assert np.linalg.norm(r.z) <= cap + 1e-9


def test_beats_equal_budget_of_prior_draws():
    geometry = GridGeometry(nx=8, ny=8, nz=4)
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=0)
    truth = gen.generate(sample_prior(1, 8, rng_seed=9)[0], dtype=np.float64)
    wells = extract_well_data(truth, [(1, 2), (5, 6), (6, 1), (3, 5)])
    obs = Observations(wells=wells)
    from fluvinv.inversion.loss import well_mae

    cfg = LatentOptimizeConfig(n_restarts=4, iterations=250, lr=0.03, rng_seed=10)
    result = latent_optimize(gen, obs, cfg)
    prior = sample_prior(4, 8, rng_seed=11)
    prior_best = min(well_mae(gen.generate(z), wells) for z in prior)
    assert result.best().well_mae <= prior_best


# ---------------------------------------------------------------------------
# row blocks against the per-restart reference loop

def _assert_records_match(got, want):
    assert got.index == want.index
    assert got.aborted == want.aborted and got.note == want.note
    assert len(got.loss_history) == len(want.loss_history)
    np.testing.assert_allclose(got.loss_history, want.loss_history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.z, want.z, rtol=1e-12, atol=0)
    if want.labels is None:
        assert got.labels is None
    else:
        np.testing.assert_allclose(got.labels, want.labels, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.well_mae, want.well_mae, rtol=1e-12, atol=0)


def _procedural_case(label_dim=0, geometry=GridGeometry(nx=16, ny=16, nz=4), seismic=False):
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=label_dim)
    truth = gen.generate(sample_prior(1, 8, rng_seed=21)[0], dtype=np.float64)
    wells = extract_well_data(truth, [(2, 3), (5, 6), (7, 1)])
    if not seismic:
        return gen, Observations(wells=wells)
    model = SeismicModel(psf=PsfConfig(kernel_extents=(9, 3, 3)))
    return gen, Observations(wells=wells, seismic=model.forward(truth), seismic_model=model)


def _count_backward(monkeypatch):
    calls = []
    original = tc.GraphTape.backward

    def counted(self, output, seed=None):
        calls.append(output.value.shape)
        return original(self, output, seed)

    monkeypatch.setattr(tc.GraphTape, "backward", counted)
    return calls


BLOCK_CASES = {
    "wells": (lambda: _procedural_case(),
              dict(n_restarts=3, iterations=25, lr=0.05, lr_schedule="cosine",
                   loss=DataLossConfig(metric="absolute"), rng_seed=3)),
    "labels": (lambda: _procedural_case(label_dim=5),
               dict(n_restarts=3, iterations=25, lr=0.1, optimize_labels=True, rng_seed=4)),
    "ball": (lambda: _procedural_case(),
             dict(n_restarts=3, iterations=25, lr=0.2, ball_radius=0.3, rng_seed=5)),
    "seismic-auto": (lambda: _procedural_case(geometry=GridGeometry(nx=8, ny=8, nz=4),
                                              seismic=True),
                     dict(n_restarts=3, iterations=8, lr=0.05,
                          loss=DataLossConfig(use_seismic=True), rng_seed=6)),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_row_block_matches_per_restart_reference(name, monkeypatch):
    make, kwargs = BLOCK_CASES[name]
    gen, obs = make()
    cfg = LatentOptimizeConfig(**kwargs)
    calls = _count_backward(monkeypatch)
    result = latent_optimize(gen, obs, cfg)
    # every restart in one block: one (R,) loss graph per step
    assert calls == [(cfg.n_restarts,)] * cfg.iterations
    monkeypatch.undo()
    assert [r.index for r in result.restarts] == list(range(cfg.n_restarts))
    for r in result.restarts:
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))
    if name == "ball":  # the projection acted
        cap = 0.3 * np.sqrt(gen.latent_dim)
        assert any(np.isclose(np.linalg.norm(r.z), cap, rtol=1e-12) for r in result.restarts)


def test_well_term_restarts_record_one_differentiable_tape_per_step(monkeypatch):
    gen, obs = _procedural_case()
    tapes = []
    original = tc.GraphTape.input

    def counted(self, value, name=None):
        if not any(t is self for t in tapes):
            tapes.append(self)
        return original(self, value, name)

    monkeypatch.setattr(tc.GraphTape, "input", counted)
    latent_optimize(gen, obs, LatentOptimizeConfig(n_restarts=30, iterations=4, rng_seed=2))
    assert len(tapes) == 4


def test_seismic_row_over_the_cell_budget_keeps_its_own_graph(monkeypatch):
    gen, obs = _procedural_case(geometry=GridGeometry(nx=8, ny=8, nz=4), seismic=True)
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=3, lr=0.05,
                               loss=DataLossConfig(use_seismic=True), rng_seed=7)
    monkeypatch.setattr(opt, "_CELL_BUDGET", gen.geometry.n_cells)  # one grid per graph
    calls = _count_backward(monkeypatch)
    result = latent_optimize(gen, obs, cfg)
    assert calls == [()] * (cfg.n_restarts * cfg.iterations)  # unbatched graphs
    monkeypatch.undo()
    for r in result.restarts:
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))


def test_neural_rows_count_the_whole_grid(monkeypatch):
    # the neural generator builds the whole grid even at the well cells, so
    # its rows fill the budget by grid: 2 rows of 8x8x4 in 512 cells
    geometry = GridGeometry(nx=8, ny=8, nz=4)
    gen = NeuralGenerator.random_init(
        geometry, GeneratorDescriptor(latent_dim=6, base_channels=4, out_extents=(8, 8, 4)),
        rng_seed=3)
    truth = gen.generate(sample_prior(1, 6, rng_seed=4)[0], dtype=np.float64)
    obs = Observations(wells=extract_well_data(truth, [(1, 2), (6, 5)]))
    cfg = LatentOptimizeConfig(n_restarts=3, iterations=2, lr=0.05, rng_seed=5)
    monkeypatch.setattr(opt, "_CELL_BUDGET", 2 * geometry.n_cells)
    calls = _count_backward(monkeypatch)
    result = latent_optimize(gen, obs, cfg)
    assert calls == [(2,)] * cfg.iterations + [()] * cfg.iterations
    monkeypatch.undo()
    for r in result.restarts:
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))


def test_blocks_split_by_cell_budget_are_worker_count_independent(monkeypatch):
    gen, obs = _procedural_case()
    monkeypatch.setattr(opt, "_CELL_BUDGET", 2 * len(obs.wells.flat_cell_indices()))
    runs = [latent_optimize(gen, obs, LatentOptimizeConfig(n_restarts=5, iterations=10,
                                                           rng_seed=8, threads=threads))
            for threads in (1, 2)]
    for a, b in zip(*(r.restarts for r in runs)):
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.loss_history, b.loss_history)
        assert a.well_mae == b.well_mae
    cfg = LatentOptimizeConfig(n_restarts=5, iterations=10, rng_seed=8)
    for r in runs[0].restarts:  # blocks of 2, 2 and 1 rows
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))


def test_non_finite_row_aborts_alone():
    rng = np.random.default_rng(10)
    A = 0.05 * rng.standard_normal((6, 4))
    obs = Observations(wells=extract_well_data(LinearGenerator(A).generate(rng.standard_normal(4)),
                                               [(i, 0) for i in range(6)]))
    cfg = LatentOptimizeConfig(n_restarts=3, iterations=10, lr=0.05, rng_seed=11)
    result = latent_optimize(NonFiniteGenerator(A, nan_step=4, nan_row=1), obs, cfg)
    bad = result.restarts[1]
    assert bad.aborted and bad.note == "non-finite loss at iteration 4"
    assert len(bad.loss_history) == 5 and np.isnan(bad.loss_history[-1])
    assert np.all(np.isfinite(bad.z))
    for r in result.restarts:
        gen = NonFiniteGenerator(A, nan_step=4) if r.index == 1 else LinearGenerator(A)
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))
    assert [r.index for r in result.ok()] == [0, 2]


@pytest.mark.parametrize("field, value", [
    ("n_restarts", 0), ("iterations", -1), ("threads", 0), ("lr", 0.0), ("lr", -0.1),
    ("ball_radius", 0.0), ("ball_radius", -1.0), ("beta1", 1.0), ("beta1", -0.1),
    ("beta1", math.nan), ("beta2", 1.0), ("beta2", -1.0), ("beta2", math.nan),
])
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(InversionError, match=field):
        LatentOptimizeConfig(**{field: value})


def test_zero_iterations_scores_the_starts():
    gen, obs = _procedural_case()
    cfg = LatentOptimizeConfig(n_restarts=2, iterations=0, rng_seed=9)
    result = latent_optimize(gen, obs, cfg)
    for r in result.restarts:
        assert len(r.loss_history) == 1
        _assert_records_match(r, run_restart_reference(gen, obs, cfg, r.index))
