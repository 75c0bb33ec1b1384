"""Posterior approximation with an affine-coupling normalizing flow.

The flow maps base noise u ~ N(0, I) to latents z through a stack of
couplings (alternating half masks, small dense conditioners); training
maximizes a reparameterized Monte Carlo estimate of the evidence lower bound
E_q[log p(data|z) + log p(z) - log q(z)] up to an additive constant.

The coupling stack is one tape record: a numpy forward over u and every
conditioner weight, each conditioner through the dense-chain kernel of
:mod:`.networks`, and a hand-derived backward. Its values and gradients are
those of the per-op records (crops, dense, clamp, exp, product, concat,
sums) it stands for, bit for bit; ``tests/helpers.py`` keeps that taped
form as the reference.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .. import tensors as tc
from ..generators import keyed_rng, sample_prior
from .loss import DataLoss, DataLossConfig, InversionError
from .networks import _mlp, mlp_init, mlp_sizes
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
                lo, hi = self._halves(layer)
                sub = mlp_init(lo.stop - lo.start, config.hidden, 2 * (hi.stop - hi.start),
                               keyed_rng(config.rng_seed, 11, layer), scale=0.1)
                for k, v in sub.items():
                    weights[f"layer{layer}.{k}"] = v
        self.weights = weights
        self._n_mlp = len(mlp_sizes(1, config.hidden, 1))
        self._names = [f"layer{layer}.fc{i}.{p}" for layer in range(config.n_layers)
                       for i in range(self._n_mlp) for p in "wb"]

    def transform(self, tape, u, weight_nodes=None, clamped=None):
        """(z node, log-determinant node) for a base-noise node u.

        ``u`` is one draw, shape (dim,), or a batch, shape (B, dim); z has
        the shape of u, and the log-determinant is a scalar summed over the
        rows. Row i of a batch's z equals the transform of ``u[i]`` exactly.

        A raw coupling scale beyond ``scale_clip`` is clamped, with a
        warning; ``clamped``, an integer array (n_layers,), if given, gains
        each layer's count of clamped entries.

        The whole stack is one tape record over u and every weight (see
        :meth:`_couple`). Its value packs z with one more column that holds
        the log-determinant in its first entry, zeros below (an empty batch
        gets one padding row for it); z and the log-determinant are read
        from it as crops, so one backward serves both.
        """
        if weight_nodes is None:
            weight_nodes = {k: tape.constant(v) for k, v in self.weights.items()}
        nodes = [weight_nodes[k] for k in self._names]
        value, vjp, counts = self._couple(u.value, [n.value for n in nodes], u.requires_grad)
        packed = tc.custom(lambda *_: (value, vjp), u, *nodes)
        for layer, n_clamped in enumerate(counts):
            if n_clamped:
                warnings.warn("coupling scale clamped to keep the flow invertible",
                              stacklevel=2)
                if clamped is not None:
                    clamped[layer] += n_clamped
        lead = tuple(slice(0, n) for n in u.value.shape[:-1])
        z = tc.crop(packed, lead + (slice(0, self.dim),))
        logdet = tc.sum_all(tc.crop(packed, lead + (slice(self.dim, self.dim + 1),)))
        return z, logdet

    def _couple(self, u, params, need_u):
        """The coupling stack on arrays: ``params`` holds each layer's
        conditioner weights in the order of ``_names``, all in the storage
        dtype of ``u``. Returns ``(packed, vjp, clamp counts per layer)``.

        Each step computes what its tape record would, cast to the storage
        dtype: the conditioner's raw output through :func:`.networks._mlp`,
        s = clip(raw scale), b exp(s) + t, and the log-determinant as the
        running sum of each layer's float64 sum of s. ``vjp`` runs the
        records' backward in reverse, so a scale gradient is zero at and
        beyond the clip, as ``tc.clamp`` gives it; the gradient of u is None
        without ``need_u``."""
        cfg = self.config
        dim, dt = self.dim, u.dtype
        per_layer = 2 * self._n_mlp
        clip = float(cfg.scale_clip)
        z, logdet = u, None
        saved, counts = [], []
        for layer in range(cfg.n_layers):
            lo, hi = self._halves(layer)
            a = np.ascontiguousarray(z[..., lo])
            b = z[..., hi]
            raw, mlp_vjp = _mlp(a, params[layer * per_layer:(layer + 1) * per_layer],
                                need_x=layer > 0 or need_u)
            d_b = b.shape[-1]
            s_raw = np.ascontiguousarray(raw[..., :d_b])
            counts.append(int(np.count_nonzero(np.abs(s_raw) > clip)))
            s = np.clip(s_raw, -clip, clip)
            e = np.exp(s)
            z = np.empty_like(z)
            z[..., lo] = a
            z[..., hi] = b * e + raw[..., d_b:]
            part = np.asarray(s.sum(dtype=np.float64), dtype=dt)
            logdet = part if logdet is None else np.asarray(logdet + part, dtype=dt)
            saved.append((b, s_raw, e, mlp_vjp))
        # z plus a column whose first entry holds the log-determinant; an
        # empty batch keeps one row for that entry
        lead = tuple(slice(0, n) for n in u.shape[:-1])
        packed = np.zeros(tuple(max(n, 1) for n in u.shape[:-1]) + (dim + 1,), dtype=dt)
        packed[lead + (slice(0, dim),)] = z
        packed[(0,) * (u.ndim - 1) + (dim,)] = logdet

        def vjp(g):
            g_z = g[lead + (slice(0, dim),)]
            g_ld = g[(0,) * (u.ndim - 1) + (dim,)]
            grads = [None] * len(params)
            for layer in reversed(range(cfg.n_layers)):
                lo, hi = self._halves(layer)
                b, s_raw, e, mlp_vjp = saved[layer]
                g_new = np.ascontiguousarray(g_z[..., hi])
                g_s = g_new * b * e + g_ld
                g_s = g_s * ((s_raw > -clip) & (s_raw < clip))
                g_a, *sub = mlp_vjp(np.concatenate([g_s, g_new], axis=-1))
                grads[layer * per_layer:(layer + 1) * per_layer] = sub
                if g_a is not None:
                    g_prev = np.empty_like(g_z)
                    g_prev[..., lo] = g_z[..., lo] + g_a
                    g_prev[..., hi] = g_new * e
                    g_z = g_prev
            return (g_z if need_u else None, *grads)

        return packed, vjp, counts

    def _halves(self, layer):
        # column slices of the conditioning half a and the transformed half b:
        # even layers condition on the first half, odd layers on the second
        if layer % 2 == 0:
            return slice(0, self.half), slice(self.half, self.dim)
        return slice(self.half, self.dim), slice(0, self.half)

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
