"""DREAM(ZS) sampler: analytic targets, proposal symmetry, acceptance rule."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from fluvinv.inversion import ChainEnsemble, DreamConfig, dream_zs, gelman_rubin
from fluvinv.inversion.loss import InversionError
from fluvinv.inversion.mcmc import accept_probability, de_jump


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
    with pytest.raises(InversionError, match=">= 3 chains"):
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
