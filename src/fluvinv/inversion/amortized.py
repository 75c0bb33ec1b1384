"""Amortized inversion: a dense network reparameterizes the latent space so
that samples drawn through it match the observations."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .. import tensors as tc
from ..generators import keyed_rng, sample_prior
from ..grids import check_config, is_integer
from .loss import DataLoss, DataLossConfig, InversionError
from .networks import mlp_apply, mlp_init, mlp_sizes
from .optimize import descend

__all__ = [
    "InferenceNetConfig",
    "InferenceNet",
    "AmortizedResult",
    "train_inference_network",
    "mean_pairwise_distance",
    "expected_prior_pairwise_distance",
]


@dataclass
class InferenceNetConfig:
    hidden: tuple = (64, 64)
    noise_dim: int | None = None     # default: the latent dimension
    steps: int = 400
    batch: int = 8
    lr: float = 1e-3
    collapse_reg: float = 0.0        # moment-matching pull toward the prior; off by default
    loss: DataLossConfig = field(default_factory=DataLossConfig)
    rng_seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        check_config(self, InversionError, ("hidden noise_dim batch", ">=", 1),
                     ("steps rng_seed", ">=", 0), ("collapse_reg", ">=", 0.0), ("lr", ">", 0.0))


class InferenceNet:
    """Noise -> latent map; output dimension equals the generator latent size."""

    def __init__(self, noise_dim, latent_dim, hidden=(64, 64), weights=None, rng_seed=0):
        self.noise_dim = noise_dim
        self.latent_dim = latent_dim
        self.hidden = tuple(hidden)
        self.n_layers = len(mlp_sizes(noise_dim, self.hidden, latent_dim))
        if weights is None:
            weights = mlp_init(noise_dim, self.hidden, latent_dim, keyed_rng(rng_seed, 19))
        self.weights = weights

    def apply(self, tape, eps, weight_nodes=None):
        """Latent node for a noise node, one draw (noise_dim,) or a batch
        (B, noise_dim) giving (B, latent_dim)."""
        if weight_nodes is None:
            weight_nodes = {k: tape.constant(v) for k, v in self.weights.items()}
        return mlp_apply(tape, weight_nodes, eps, self.n_layers)

    def push(self, eps):
        """Numpy latents for noise eps, one draw (noise_dim,) or a batch (n, noise_dim)."""
        tape = tc.GraphTape(np.float64)
        return np.asarray(self.apply(tape, tape.constant(np.asarray(eps))).value)

    def sample(self, n, rng_seed=0):
        """(n, latent_dim) latents from counter-based noise draws, pushed as one batch."""
        return self.push(sample_prior(n, self.noise_dim, rng_seed, 23))


@dataclass
class AmortizedResult:
    net: InferenceNet
    loss_history: np.ndarray
    wall_clock_s: float = 0.0
    halted: bool = False


def train_inference_network(generator, observations, config=None):
    """Train the latent reparameterization against the frozen generator."""
    cfg = config or InferenceNetConfig()
    t0 = time.perf_counter()
    noise_dim = cfg.noise_dim or generator.latent_dim
    net = InferenceNet(noise_dim, generator.latent_dim, cfg.hidden, rng_seed=cfg.rng_seed)
    loss_fn = DataLoss(observations, cfg.loss, geometry=generator.geometry)

    def objective(tape, wnodes, step):
        eps = keyed_rng(cfg.rng_seed, 29, step).standard_normal((cfg.batch, noise_dim))
        z = net.apply(tape, tape.constant(eps), wnodes)
        coarse, _ = generator.build(tape, z, cells=loss_fn.cells, depo=False)
        total = loss_fn.build(tape, coarse, z=z)  # the batch mean

        if cfg.collapse_reg > 0:
            mean = (1.0 / cfg.batch) * tc.sum_axis(z, 0)
            var = (1.0 / max(cfg.batch - 1, 1)) * tc.sum_axis(tc.square(z - mean), 0)
            reg = tc.mean_all(tc.square(mean)) + tc.mean_all(tc.square(tc.sqrt(var + 1e-12) - 1.0))
            total = total + cfg.collapse_reg * reg
        return total

    history, halted = descend(objective, net.weights, np.dtype(cfg.dtype), cfg.steps, cfg.lr)
    return AmortizedResult(net=net, loss_history=np.asarray(history),
                           wall_clock_s=time.perf_counter() - t0, halted=halted)


def mean_pairwise_distance(latents):
    z = np.asarray(latents)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InversionError(f"need an (n, d) array of at least two latents, got shape {z.shape}")
    n = z.shape[0]
    total = 0.0
    count = 0
    for i in range(n):
        total += np.linalg.norm(z[i + 1:] - z[i], axis=1).sum()
        count += n - 1 - i
    return total / count


def expected_prior_pairwise_distance(d):
    """E|z1 - z2| for independent standard normals: 2 Gamma((d+1)/2) / Gamma(d/2)."""
    if not is_integer(d) or d < 1:
        raise InversionError(f"dimension must be a positive integer, got {d!r}")
    return 2.0 * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
