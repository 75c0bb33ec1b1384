"""Multi-chain MCMC with differential-evolution jumps from a state archive,
plus the potential-scale-reduction convergence diagnostic.

The sampler follows the published defaults of the DREAM(ZS) family: parallel
direction moves built from archive differences with subspace crossover,
occasional snooker jumps, unit-jump generations for mode hopping, periodic
archive extension, and outlier-chain resets during burn-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..generators import keyed_rng, sample_prior
from .loss import InversionError
from .optimize import check_config

__all__ = [
    "DreamConfig",
    "ChainEnsemble",
    "dream_zs",
    "gelman_rubin",
    "accept_probability",
    "de_jump",
]


@dataclass
class DreamConfig:
    n_chains: int = 10
    generations: int = 10000        # sampling generations after burn-in
    burn_in: int = 20000
    archive_size0: int | None = None   # default 10 * d
    archive_thin: int = 10
    snooker_prob: float = 0.1
    de_pairs_max: int = 3
    cr_values: tuple = (1.0 / 3.0, 2.0 / 3.0, 1.0)
    gamma_one_every: int = 5        # unit jump rate for mode switching
    jitter: float = 0.1             # e ~ U(-jitter, jitter)
    noise: float = 1e-6             # eps ~ N(0, noise^2)
    outlier_every: int = 500        # burn-in outlier checks
    init_scale: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_chains < 3:
            raise InversionError(f"need >= 3 chains, got {self.n_chains}")
        check_config(self, (("generations", 0), ("burn_in", 0), ("outlier_every", 0),
                            ("archive_thin", 1), ("gamma_one_every", 1), ("de_pairs_max", 1),
                            ("jitter", 0), ("noise", 0)), ("init_scale",))
        if not 0.0 <= self.snooker_prob <= 1.0:
            raise InversionError(f"snooker_prob must be in [0, 1], got {self.snooker_prob}")
        if not self.cr_values or not all(0.0 < cr <= 1.0 for cr in self.cr_values):
            raise InversionError(f"cr_values must be a non-empty tuple in (0, 1], "
                                 f"got {self.cr_values}")


@dataclass
class ChainEnsemble:
    """All chain states including burn-in, their log-posteriors, and the archive."""

    states: np.ndarray          # (n_chains, n_generations, d)
    log_posteriors: np.ndarray  # (n_chains, n_generations)
    archive: np.ndarray         # (m, d)
    burn_in: int
    accept_rate: float = 0.0
    outlier_resets: int = 0

    @property
    def n_chains(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[2]

    def posterior_samples(self):
        """Post-burn-in states flattened to (n, d)."""
        return self.states[:, self.burn_in:, :].reshape(-1, self.dim)

    def retained(self):
        """Second half of the post-burn-in samples, per chain."""
        post = self.states[:, self.burn_in:, :]
        half = post.shape[1] // 2
        return post[:, half:, :]


def accept_probability(log_ratio):
    """Metropolis acceptance: min(1, exp(log_ratio))."""
    if log_ratio >= 0:
        return 1.0
    return math.exp(log_ratio)


def de_jump(archive_rows_a, archive_rows_b, gamma, mask, e, eps):
    """Parallel-direction jump: (1 + e) * gamma * (sum A - sum B) on the
    crossover subspace, plus small noise. Pure function for symmetry tests."""
    diff = archive_rows_a.sum(axis=0) - archive_rows_b.sum(axis=0)
    jump = (1.0 + e) * gamma * diff + eps
    return np.where(mask, jump, 0.0)


def _distinct_rows(rng, m, k):
    idx = []
    while len(idx) < k:
        cand = int(rng.integers(m))
        if cand not in idx:
            idx.append(cand)
    return idx


def dream_zs(log_posterior, d, config=None):
    """Sample a black-box log posterior over R^d.

    Initial archive rows and chain states are :func:`.sample_prior` rows of
    streams 1 and 2, scaled by ``init_scale``. Proposal randomness for
    (generation, chain) comes from :func:`.keyed_rng` ``(seed, 3,
    generation, chain)`` only, so results do not depend on how chains are
    scheduled.
    """
    cfg = config or DreamConfig()
    m0 = cfg.archive_size0 if cfg.archive_size0 is not None else 10 * d
    if m0 < 2 * cfg.de_pairs_max + 1:
        raise InversionError(
            f"archive of {m0} is smaller than 2*delta+1 = {2 * cfg.de_pairs_max + 1}")

    total = cfg.burn_in + cfg.generations
    states = np.empty((cfg.n_chains, total, d))
    logps = np.empty((cfg.n_chains, total))

    archive_rows = list(cfg.init_scale * sample_prior(m0, d, cfg.rng_seed, 1))
    x = cfg.init_scale * sample_prior(cfg.n_chains, d, cfg.rng_seed, 2)
    x_logp = np.array([log_posterior(row) for row in x], dtype=np.float64)
    n_accept = 0
    n_prop = 0
    n_resets = 0

    for t in range(total):
        arch = np.asarray(archive_rows)
        m = arch.shape[0]
        unit_jump = (t + 1) % cfg.gamma_one_every == 0
        for i in range(cfg.n_chains):
            rng = keyed_rng(cfg.rng_seed, 3, t, i)
            snooker = rng.uniform() < cfg.snooker_prob
            log_corr = 0.0
            if not snooker:
                delta = int(rng.integers(1, cfg.de_pairs_max + 1))
                rows = _distinct_rows(rng, m, 2 * delta)
                cr = cfg.cr_values[int(rng.integers(len(cfg.cr_values)))]
                mask = rng.uniform(size=d) < cr
                if not mask.any():
                    mask[int(rng.integers(d))] = True
                d_eff = int(mask.sum())
                gamma = 1.0 if unit_jump else 2.38 / math.sqrt(2.0 * delta * d_eff)
                e = rng.uniform(-cfg.jitter, cfg.jitter, size=d)
                eps = cfg.noise * rng.standard_normal(d)
                jump = de_jump(arch[rows[:delta]], arch[rows[delta:]],
                               gamma, mask, e, eps)
                proposal = x[i] + jump
            else:
                rows = _distinct_rows(rng, m, 3)
                za, zb, zc = arch[rows[0]], arch[rows[1]], arch[rows[2]]
                line = x[i] - za
                denom = float(line @ line)
                gamma_s = rng.uniform(1.2, 2.2)
                if denom < 1e-300:
                    continue  # degenerate line; keep the current state
                proj_b = (float(zb @ line) / denom) * line
                proj_c = (float(zc @ line) / denom) * line
                proposal = x[i] + gamma_s * (proj_b - proj_c)
                num = float(np.linalg.norm(proposal - za))
                den = float(np.linalg.norm(x[i] - za))
                if num <= 0 or den <= 0:
                    continue
                log_corr = (d - 1) * (math.log(num) - math.log(den))

            logp_new = log_posterior(proposal)
            n_prop += 1
            if np.isfinite(logp_new):
                alpha = accept_probability(logp_new - x_logp[i] + log_corr)
                if rng.uniform() < alpha:
                    x[i] = proposal
                    x_logp[i] = logp_new
                    n_accept += 1

        states[:, t, :] = x
        logps[:, t] = x_logp

        if (t + 1) % cfg.archive_thin == 0:
            archive_rows.extend(x.copy())

        if t < cfg.burn_in and cfg.outlier_every and (t + 1) % cfg.outlier_every == 0:
            # reset chains whose mean log-posterior trails the pack
            half = (t + 1) // 2
            means = logps[:, half:t + 1].mean(axis=1)
            q1, q3 = np.percentile(means, [25, 75])
            bad = means < q1 - 2.0 * (q3 - q1)
            if bad.any():
                best = int(np.argmax(means))
                for i in np.where(bad)[0]:
                    x[i] = x[best]
                    x_logp[i] = x_logp[best]
                    n_resets += 1

    return ChainEnsemble(states=states, log_posteriors=logps,
                         archive=np.asarray(archive_rows), burn_in=cfg.burn_in,
                         accept_rate=n_accept / max(n_prop, 1),
                         outlier_resets=n_resets)


def gelman_rubin(chains):
    """Potential scale reduction per dimension.

    Accepts a ChainEnsemble (second half of post-burn-in samples is used) or
    an array of shape (n_chains, n_samples, d). Returns an array of length d;
    +inf flags chains stuck at distinct constants, exact constants give 1.
    """
    if isinstance(chains, ChainEnsemble):
        data = chains.retained()
    else:
        data = np.asarray(chains, dtype=np.float64)
    if data.ndim != 3:
        raise InversionError(f"expected (chains, samples, dims), got {data.shape}")
    n_chains, n, d = data.shape
    if n_chains < 2:
        raise InversionError("Gelman-Rubin needs at least 2 chains")
    if n < 4:
        raise InversionError(f"need >= 4 retained samples per chain, got {n}")

    out = np.empty(d)
    for j in range(d):
        seq = data[:, :, j]
        w = seq.var(axis=1, ddof=1).mean()
        b_over_n = seq.mean(axis=1).var(ddof=1)
        if w == 0.0:
            # every chain is stuck at a constant: converged if it is the
            # same constant everywhere, hopeless otherwise
            out[j] = 1.0 if np.all(seq == seq[0, 0]) else np.inf
            continue
        var_hat = (n - 1) / n * w + b_over_n
        out[j] = math.sqrt(var_hat / w)
    return out
