"""DREAM(ZS) sampler: analytic targets, proposal symmetry, acceptance rule."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from fluvinv.inversion import ChainEnsemble, DreamConfig, dream_zs, gelman_rubin
from fluvinv.inversion.loss import InversionError
from fluvinv.inversion.mcmc import accept_probability, de_jump
from helpers import EXACT, assert_matches, dream_zs_per_proposal


def standard_normal_logp(z):
    return -0.5 * float(z @ z)


def test_standard_normal_calibration():
    cfg = DreamConfig(n_chains=8, generations=3000, burn_in=1200,
                      outlier_every=300, rng_seed=0)
    ens = dream_zs(standard_normal_logp, d=5, config=cfg)
    samples = ens.posterior_samples()
    assert np.all(np.abs(samples.mean(axis=0)) < 0.05)
    assert np.all(np.abs(samples.var(axis=0) - 1.0) < 0.1)
    rhat = gelman_rubin(ens)
    assert np.all(rhat < 1.05)


def test_bimodal_target_both_modes_visited():
    mu = 3.0 * np.ones(2)

    def logp(z):
        a = -0.5 * float((z - mu) @ (z - mu))
        b = -0.5 * float((z + mu) @ (z + mu))
        return float(logsumexp([a, b])) - np.log(2.0)

    cfg = DreamConfig(n_chains=10, generations=4000, burn_in=1500,
                      init_scale=4.0, outlier_every=0, rng_seed=1)
    ens = dream_zs(logp, d=2, config=cfg)
    samples = ens.posterior_samples()
    frac_pos = np.mean(samples.sum(axis=1) > 0)
    assert 0.10 <= frac_pos <= 0.90


def test_flat_target_accepts_everything():
    cfg = DreamConfig(n_chains=4, generations=50, burn_in=50,
                      snooker_prob=0.0, outlier_every=0, rng_seed=2)
    ens = dream_zs(lambda z: 0.0, d=3, config=cfg)
    assert ens.accept_rate == 1.0
    # chains moved (a random walk, not a frozen state)
    assert np.std(ens.states[:, -1, :] - ens.states[:, 0, :]) > 0


def test_needs_three_chains():
    with pytest.raises(InversionError, match="n_chains must be an integer >= 3"):
        dream_zs(standard_normal_logp, d=2, config=DreamConfig(n_chains=2))


@pytest.mark.parametrize("field, value", [
    ("generations", -5), ("burn_in", -1), ("outlier_every", -1), ("archive_thin", 0),
    ("gamma_one_every", 0), ("de_pairs_max", 0), ("snooker_prob", 1.5),
    ("snooker_prob", -0.1), ("snooker_prob", math.nan), ("jitter", -0.1),
    ("jitter", math.nan), ("noise", -1e-6), ("noise", math.nan), ("init_scale", 0.0),
    ("init_scale", -1.0), ("init_scale", math.nan), ("cr_values", ()),
    ("cr_values", (0.0, 1.0)), ("cr_values", (0.5, 1.5)), ("cr_values", (math.nan,)),
])
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(InversionError, match=field):
        DreamConfig(**{field: value})


def test_config_accepts_its_edge_values():
    cfg = DreamConfig(n_chains=3, generations=0, burn_in=4, outlier_every=0,
                      archive_thin=1, gamma_one_every=1, de_pairs_max=1, snooker_prob=1.0,
                      cr_values=(1.0,), jitter=0.0, noise=0.0)
    ens = dream_zs(standard_normal_logp, d=2, config=cfg)
    assert ens.states.shape == (3, 4, 2) and ens.burn_in == 4


def test_archive_must_cover_pairs():
    cfg = DreamConfig(n_chains=3, archive_size0=5, de_pairs_max=3)
    with pytest.raises(InversionError, match="archive"):
        dream_zs(standard_normal_logp, d=2, config=cfg)


def test_acceptance_rule_is_metropolis():
    assert accept_probability(0.0) == 1.0
    assert accept_probability(2.0) == 1.0
    assert accept_probability(-1.0) == pytest.approx(np.exp(-1.0))
    assert accept_probability(-50.0) == pytest.approx(np.exp(-50.0))


def test_parallel_jump_set_closed_under_negation():
    # with fixed archive, zero jitter and zero noise, the jump built from
    # pair (A, B) is the exact negation of the jump built from (B, A)
    rng = np.random.default_rng(3)
    archive = rng.normal(size=(6, 4))
    mask = np.array([True, False, True, True])
    gamma = 2.38 / np.sqrt(2 * 1 * mask.sum())
    zeros = np.zeros(4)
    jumps = []
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            jumps.append(de_jump(archive[[i]], archive[[j]], gamma, mask, zeros, zeros))
    jumps = np.array(jumps)
    for jump in jumps:
        assert np.min(np.linalg.norm(jumps + jump, axis=1)) < 1e-12
    # jumps vanish off the crossover subspace
    assert np.all(jumps[:, 1] == 0.0)


def test_jump_independent_of_current_state():
    # the parallel-direction proposal adds an archive-only jump, so the
    # transition z -> z + j has the same density as z + j -> z
    rng = np.random.default_rng(4)
    archive = rng.normal(size=(8, 3))
    mask = np.ones(3, dtype=bool)
    j1 = de_jump(archive[[0, 2]], archive[[5, 7]], 0.7, mask, np.zeros(3), np.zeros(3))
    j2 = de_jump(archive[[5, 7]], archive[[0, 2]], 0.7, mask, np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(j1, -j2, atol=1e-15)


def test_gelman_rubin_converged_chains():
    rng = np.random.default_rng(5)
    chains = rng.standard_normal((6, 800, 3))
    assert np.all(gelman_rubin(chains) < 1.05)


def test_gelman_rubin_distinct_constants_is_infinite():
    chains = np.zeros((2, 10, 1))
    chains[1] += 1.0
    assert np.isinf(gelman_rubin(chains)[0])


def test_gelman_rubin_identical_constants_is_one():
    chains = np.full((3, 10, 2), 0.7)
    np.testing.assert_array_equal(gelman_rubin(chains), [1.0, 1.0])


def test_gelman_rubin_needs_four_samples():
    with pytest.raises(InversionError, match=">= 4"):
        gelman_rubin(np.zeros((3, 3, 2)))


def test_ensemble_shapes_and_determinism():
    cfg = DreamConfig(n_chains=4, generations=60, burn_in=40, rng_seed=6)
    a = dream_zs(standard_normal_logp, d=3, config=cfg)
    b = dream_zs(standard_normal_logp, d=3, config=cfg)
    assert isinstance(a, ChainEnsemble)
    assert a.states.shape == (4, 100, 3)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.retained().shape[1] == 30


def test_chain_with_a_nan_start_moves():
    # a NaN initial log-posterior scores -inf, as a NaN proposal is rejected,
    # so the chain accepts its first finite proposal instead of never moving
    calls = []

    def logp(z):
        calls.append(None)
        return math.nan if len(calls) == 1 else standard_normal_logp(z)

    cfg = DreamConfig(n_chains=4, generations=60, burn_in=0, rng_seed=5)
    ens = dream_zs(logp, d=4, config=cfg)
    for chain in ens.states:
        assert np.ptp(chain, axis=0).max() > 0
    assert np.all(np.isfinite(ens.log_posteriors[:, -1]))


def _finite_where_small(z):
    # NaN and -inf proposals, as a diverged model would score them
    if z[0] > 1.5:
        return math.nan
    if z[1] > 1.0:
        return -math.inf
    return standard_normal_logp(z)


def _nan_at_first_call():
    calls = []

    def logp(z):
        calls.append(None)
        return math.nan if len(calls) == 1 else _finite_where_small(z)
    return logp


def _two_wells(z):
    # two far modes: chains that start near the smaller one trail the pack
    a = -0.5 * float((z - 3.0) @ (z - 3.0))
    b = -0.5 * float((z + 3.0) @ (z + 3.0)) - 20.0
    return float(logsumexp([a, b]))


_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)
_REFERENCE_CASES = [
    *[(f"chains{n}-thin{thin}-seed{seed}", standard_normal_logp, 3,
       dict(n_chains=n, archive_thin=thin, rng_seed=seed, burn_in=20, generations=25))
      for n in (3, 10) for thin in (1, 3, 10) for seed in _SEEDS[:2]],
    *[(f"resets-seed{seed}", _two_wells, 2,
       dict(n_chains=10, burn_in=60, generations=10, outlier_every=20, init_scale=4.0,
            rng_seed=seed)) for seed in _SEEDS],
    # chains that never move, all snooker, the archive full of their states
    *[(f"degenerate-line-seed{seed}", lambda z: -math.inf, 2,
       dict(n_chains=3, burn_in=0, generations=30, archive_thin=1, snooker_prob=1.0,
            archive_size0=3, de_pairs_max=1, rng_seed=seed)) for seed in _SEEDS],
    *[(f"non-finite-seed{seed}", _nan_at_first_call, 4,
       dict(n_chains=4, burn_in=10, generations=30, snooker_prob=0.5, rng_seed=seed))
      for seed in _SEEDS],
]


@pytest.mark.parametrize("name, logp, d, fields", _REFERENCE_CASES,
                         ids=[case[0] for case in _REFERENCE_CASES])
def test_matches_the_per_proposal_stream_loop(name, logp, d, fields):
    if name.startswith("non-finite"):
        logp, ref_logp = logp(), logp()
    else:
        ref_logp = logp
    cfg = DreamConfig(**fields)
    got = dream_zs(logp, d, cfg)
    want = dream_zs_per_proposal(ref_logp, d, cfg)
    fields = ("states", "log_posteriors", "archive", "accept_rate", "outlier_resets")
    assert_matches({k: getattr(got, k) for k in fields}, {k: getattr(want, k) for k in fields},
                   EXACT)
    if name.startswith("resets"):
        assert got.outlier_resets > 0
    if name.startswith("degenerate"):
        assert got.accept_rate == 0.0
        assert (got.archive[:, None, :] == got.states[:, -1, :][None]).all(axis=2).any()


def test_builds_no_seed_sequence_per_generation(monkeypatch):
    # the streams of a run come from one batch pass: the number of
    # SeedSequence objects must not grow with the number of generations
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    counts = []
    for generations in (2, 20):
        built.clear()
        dream_zs(standard_normal_logp, d=3,
                 config=DreamConfig(n_chains=4, burn_in=0, generations=generations))
        counts.append(len(built))
    assert counts[0] == counts[1]
