"""Posterior approximation with an affine-coupling normalizing flow.

The flow maps base noise u ~ N(0, I) to latents z through a stack of
couplings (alternating half masks, small dense conditioners); training
maximizes a reparameterized Monte Carlo estimate of the evidence lower bound
E_q[log p(data|z) + log p(z) - log q(z)] up to an additive constant.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .. import tensors as tc
from .loss import DataLoss, DataLossConfig, InversionError
from .networks import mlp_apply, mlp_init, mlp_sizes
from .optimize import _build_generator, check_schedule, descend

__all__ = ["FlowConfig", "FlowModel", "VariationalResult",
           "gaussian_data_loglik", "variational_infer"]


@dataclass
class FlowConfig:
    n_layers: int = 4
    hidden: tuple = (32,)
    scale_clip: float = 8.0      # |log scale| bound; clamping warns
    steps: int = 2000
    batch: int = 8
    lr: float = 0.01
    lr_schedule: str = "cosine"  # or "constant"
    sigma: float = 0.025         # observation noise in fraction units
    n_posterior: int = 300
    rng_seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        check_schedule(self.lr_schedule)


class FlowModel:
    """Invertible map u -> z as a stack of affine couplings."""

    def __init__(self, dim, config, weights=None):
        if dim < 2:
            raise InversionError("the coupling flow needs dim >= 2")
        self.dim = dim
        self.config = config
        self.half = dim // 2
        if weights is None:
            weights = {}
            for layer in range(config.n_layers):
                d_a, d_b = self._split_dims(layer)
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((int(config.rng_seed), 11, layer))))
                sub = mlp_init(d_a, config.hidden, 2 * d_b, rng, scale=0.1)
                for k, v in sub.items():
                    weights[f"layer{layer}.{k}"] = v
        self.weights = weights
        self._n_mlp = len(mlp_sizes(1, config.hidden, 1))

    def _split_dims(self, layer):
        # even layers condition on the first half, odd layers on the second
        d_a = self.half if layer % 2 == 0 else self.dim - self.half
        return d_a, self.dim - d_a

    def transform(self, tape, u, weight_nodes=None):
        """(z node, log-determinant node) for a base-noise node u."""
        if weight_nodes is None:
            weight_nodes = {k: tape.constant(v) for k, v in self.weights.items()}
        cfg = self.config
        z = u
        logdet = None
        for layer in range(cfg.n_layers):
            d_a, _ = self._split_dims(layer)
            if layer % 2 == 0:
                a = tc.crop(z, (slice(0, d_a),))
                b = tc.crop(z, (slice(d_a, self.dim),))
            else:
                a = tc.crop(z, (slice(self.dim - d_a, self.dim),))
                b = tc.crop(z, (slice(0, self.dim - d_a),))
            sub = {k.split(".", 1)[1]: weight_nodes[k] for k in weight_nodes
                   if k.startswith(f"layer{layer}.")}
            raw = mlp_apply(tape, sub, a, self._n_mlp)
            d_b = b.value.shape[0]
            s_raw = tc.crop(raw, (slice(0, d_b),))
            t = tc.crop(raw, (slice(d_b, 2 * d_b),))
            if np.any(np.abs(s_raw.value) > cfg.scale_clip):
                warnings.warn("coupling scale clamped to keep the flow invertible",
                              stacklevel=2)
            s = tc.clamp(s_raw, -cfg.scale_clip, cfg.scale_clip)
            b_new = b * tc.exp(s) + t
            z = (tc.concat([a, b_new], axis=0) if layer % 2 == 0
                 else tc.concat([b_new, a], axis=0))
            part = tc.sum_all(s)
            logdet = part if logdet is None else logdet + part
        return z, logdet

    def push(self, u):
        """Numpy z for base noise u."""
        tape = tc.GraphTape(np.dtype(self.config.dtype))
        z, _ = self.transform(tape, tape.constant(np.asarray(u, dtype=np.float64)))
        return np.asarray(z.value)

    def sample(self, n, rng_seed=0):
        """n posterior draws, counter-based per index."""
        out = np.empty((n, self.dim))
        for i in range(n):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((int(rng_seed), 13, i))))
            out[i] = self.push(rng.standard_normal(self.dim))
        return out


def gaussian_data_loglik(generator, observations, sigma):
    """Builder for log p(data|z): Gaussian residuals over the active terms."""
    terms = DataLoss(observations,
                     DataLossConfig(use_wells=observations.wells is not None,
                                    use_seismic=observations.seismic is not None),
                     geometry=generator.geometry)

    def build(tape, z):
        coarse, _ = _build_generator(tape, generator, z)
        total = None
        for resid in terms.residuals(tape, coarse).values():
            part = tc.sum_all(tc.square(resid))
            total = part if total is None else total + part
        return (-0.5 / sigma ** 2) * total

    return build


@dataclass
class VariationalResult:
    flow: FlowModel
    posterior: np.ndarray
    elbo_history: np.ndarray
    wall_clock_s: float = 0.0
    halted: bool = False


def variational_infer(loglik_builder, dim, config=None):
    """Fit the flow posterior; returns the flow, draws, and the ELBO trace.

    ``loglik_builder(tape, z_node) -> scalar node`` evaluates log p(data|z);
    pass None for a prior-only fit (the ELBO then reduces to -KL(q || prior)).
    """
    cfg = config or FlowConfig()
    t0 = time.perf_counter()
    flow = FlowModel(dim, cfg)

    def neg_elbo(tape, wnodes, step):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(cfg.rng_seed), 17, step))))
        elbo = None
        for _ in range(cfg.batch):
            u = rng.standard_normal(dim)
            un = tape.constant(u)
            z, logdet = flow.transform(tape, un, wnodes)
            # log p(z) - log q(z) = -|z|^2/2 + |u|^2/2 + logdet (constants cancel)
            part = -0.5 * tc.sum_all(tc.square(z)) + logdet \
                + tape.constant(0.5 * np.sum(u * u))
            if loglik_builder is not None:
                part = part + loglik_builder(tape, z)
            elbo = part if elbo is None else elbo + part
        # negation is exact, so descending -ELBO gives the ascent's weights
        return -((1.0 / cfg.batch) * elbo)

    history, halted = descend(neg_elbo, flow.weights, np.dtype(cfg.dtype), cfg.steps,
                              cfg.lr, cfg.lr_schedule)
    posterior = flow.sample(cfg.n_posterior, rng_seed=cfg.rng_seed)
    return VariationalResult(flow=flow, posterior=posterior,
                             elbo_history=-np.asarray(history),
                             wall_clock_s=time.perf_counter() - t0,
                             halted=halted)
