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
from ..generators import keyed_rng, sample_prior
from .loss import DataLoss, DataLossConfig, InversionError
from .networks import mlp_apply, mlp_init, mlp_sizes
from .optimize import check_config, check_schedule, descend

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
        check_config(self, (("n_layers", 1), ("steps", 0), ("batch", 1), ("n_posterior", 1)),
                     ("lr", "sigma", "scale_clip"))
        if any(h < 1 for h in self.hidden):
            raise InversionError(f"hidden widths must be >= 1, got {self.hidden}")


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
                sub = mlp_init(d_a, config.hidden, 2 * d_b,
                               keyed_rng(config.rng_seed, 11, layer), scale=0.1)
                for k, v in sub.items():
                    weights[f"layer{layer}.{k}"] = v
        self.weights = weights
        self._n_mlp = len(mlp_sizes(1, config.hidden, 1))

    def _split_dims(self, layer):
        # even layers condition on the first half, odd layers on the second
        d_a = self.half if layer % 2 == 0 else self.dim - self.half
        return d_a, self.dim - d_a

    def transform(self, tape, u, weight_nodes=None, clamped=None):
        """(z node, log-determinant node) for a base-noise node u.

        ``u`` is one draw, shape (dim,), or a batch, shape (B, dim); z has
        the shape of u, and the log-determinant is a scalar summed over the
        rows. Row i of a batch's z equals the transform of ``u[i]`` exactly.

        A raw coupling scale beyond ``scale_clip`` is clamped, with a
        warning; ``clamped``, an integer array (n_layers,), if given, gains
        each layer's count of clamped entries.
        """
        if weight_nodes is None:
            weight_nodes = {k: tape.constant(v) for k, v in self.weights.items()}
        cfg = self.config
        lead = (slice(None),) * (u.value.ndim - 1)

        def cols(x, lo, hi):
            return tc.crop(x, lead + (slice(lo, hi),))

        z = u
        logdet = None
        for layer in range(cfg.n_layers):
            d_a, _ = self._split_dims(layer)
            if layer % 2 == 0:
                a = cols(z, 0, d_a)
                b = cols(z, d_a, self.dim)
            else:
                a = cols(z, self.dim - d_a, self.dim)
                b = cols(z, 0, self.dim - d_a)
            sub = {k.split(".", 1)[1]: weight_nodes[k] for k in weight_nodes
                   if k.startswith(f"layer{layer}.")}
            raw = mlp_apply(tape, sub, a, self._n_mlp)
            d_b = b.value.shape[-1]
            s_raw = cols(raw, 0, d_b)
            t = cols(raw, d_b, 2 * d_b)
            n_clamped = int(np.count_nonzero(np.abs(s_raw.value) > cfg.scale_clip))
            if n_clamped:
                warnings.warn("coupling scale clamped to keep the flow invertible",
                              stacklevel=2)
                if clamped is not None:
                    clamped[layer] += n_clamped
            s = tc.clamp(s_raw, -cfg.scale_clip, cfg.scale_clip)
            b_new = b * tc.exp(s) + t
            z = (tc.concat([a, b_new], axis=-1) if layer % 2 == 0
                 else tc.concat([b_new, a], axis=-1))
            part = tc.sum_all(s)
            logdet = part if logdet is None else logdet + part
        return z, logdet

    def push(self, u):
        """Numpy z for base noise u, one draw (dim,) or a batch (n, dim)."""
        tape = tc.GraphTape(np.dtype(self.config.dtype))
        z, _ = self.transform(tape, tape.constant(np.asarray(u, dtype=np.float64)))
        return np.asarray(z.value)

    def sample(self, n, rng_seed=0):
        """(n, dim) posterior draws, counter-based per index, pushed as one batch."""
        return np.asarray(self.push(sample_prior(n, self.dim, rng_seed, 13)), dtype=np.float64)


def gaussian_data_loglik(generator, observations, sigma):
    """Builder for log p(data|z): Gaussian residuals over the active terms.

    The builder follows the contract of :func:`variational_infer`: for a
    latent node of shape (d,) it returns log p(data|z); for a batch (B, d),
    the sum of the B rows' log-likelihoods.
    """
    if not sigma > 0:
        raise InversionError(f"sigma must be > 0, got {sigma}")
    terms = DataLoss(observations,
                     DataLossConfig(use_wells=observations.wells is not None,
                                    use_seismic=observations.seismic is not None),
                     geometry=generator.geometry)

    def build(tape, z):
        coarse, _ = generator.build(tape, z, cells=terms.cells, depo=False)
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
    clamp_counts: np.ndarray = None  # per layer: clamped scale entries over the fit


def variational_infer(loglik_builder, dim, config=None):
    """Fit the flow posterior; returns the flow, draws, and the ELBO trace.

    ``loglik_builder(tape, z_node) -> scalar node`` evaluates the
    log-likelihood log p(data|z). It is called once per step with the whole
    batch, a node of shape (batch, dim), and must return the sum of the
    rows' log-likelihoods (for a node of shape (dim,), that of the one
    latent). Pass None for a prior-only fit (the ELBO then reduces to
    -KL(q || prior)).
    """
    cfg = config or FlowConfig()
    t0 = time.perf_counter()
    flow = FlowModel(dim, cfg)
    clamped = np.zeros(cfg.n_layers, dtype=np.int64)

    def neg_elbo(tape, wnodes, step):
        u = keyed_rng(cfg.rng_seed, 17, step).standard_normal((cfg.batch, dim))
        z, logdet = flow.transform(tape, tape.constant(u), wnodes, clamped)
        # log p(z) - log q(z) = -|z|^2/2 + |u|^2/2 + logdet (constants cancel),
        # summed over the batch
        elbo = -0.5 * tc.sum_all(tc.square(z)) + logdet + tape.constant(0.5 * np.sum(u * u))
        if loglik_builder is not None:
            elbo = elbo + loglik_builder(tape, z)
        # negation is exact, so descending -ELBO gives the ascent's weights
        return -((1.0 / cfg.batch) * elbo)

    history, halted = descend(neg_elbo, flow.weights, np.dtype(cfg.dtype), cfg.steps,
                              cfg.lr, cfg.lr_schedule)
    posterior = flow.sample(cfg.n_posterior, rng_seed=cfg.rng_seed)
    return VariationalResult(flow=flow, posterior=posterior,
                             elbo_history=-np.asarray(history),
                             wall_clock_s=time.perf_counter() - t0,
                             halted=halted, clamp_counts=clamped)
