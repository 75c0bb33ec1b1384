"""Latent optimization and pivotal tuning of generator weights."""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .. import tensors as tc
from ..generators import neutral_labels, sample_prior
from .loss import DataLoss, DataLossConfig, InversionError

__all__ = [
    "Adam",
    "descend",
    "LatentOptimizeConfig",
    "RestartRecord",
    "InversionResult",
    "latent_optimize",
    "PivotalTuneConfig",
    "TuneResult",
    "pivotal_tune",
]


class Adam:
    """Adam over a dict of named arrays."""

    def __init__(self, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads):
        """Update params in place; returns params."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self._t
        corr2 = 1.0 - b2 ** self._t
        for k, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            m = self._m.get(k)
            if m is None:
                m = np.zeros_like(g)
                self._m[k] = m
                self._v[k] = np.zeros_like(g)
            v = self._v[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            params[k] = params[k] - self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)
        return params


def check_schedule(name):
    """Reject a learning-rate schedule :func:`descend` does not know."""
    if name not in ("constant", "cosine"):
        raise InversionError(f"unknown lr schedule {name!r}")


def descend(objective, params, dtype, steps, lr, schedule="constant",
            beta1=0.9, beta2=0.999, constrain=None):
    """Minimize ``objective`` by Adam over the named arrays in ``params``.

    Each step records a fresh tape with one input node per entry of
    ``params`` and calls ``objective(tape, nodes, step)`` for the scalar loss
    node. ``params`` is updated in place; ``constrain(params)``, if given,
    runs after every update. The "cosine" schedule decays the rate from
    ``lr`` to 1% of it over ``steps``.

    Non-finite policy: the descent stops at the first non-finite loss,
    before updating, so ``params`` keeps the last finite iterate and the
    history ends with the non-finite value. Returns ``(history, halted)``.
    """
    opt = Adam(lr=lr, beta1=beta1, beta2=beta2)
    history = []
    for step in range(steps):
        if schedule == "cosine":
            opt.lr = lr * (0.01 + 0.99 * 0.5 * (1.0 + math.cos(math.pi * step / steps)))
        tape = tc.GraphTape(dtype)
        nodes = {k: tape.input(v) for k, v in params.items()}
        loss = objective(tape, nodes, step)
        value = float(loss.value)
        history.append(value)
        if not math.isfinite(value):
            return history, True
        grads = tape.backward(loss)
        opt.step(params, {k: grads.wrt(n) for k, n in nodes.items()})
        if constrain is not None:
            constrain(params)
    return history, False


def _generator_well_mae(generator, zs, wells, labels=None, dtype=np.float32):
    """Well MAE (:func:`.loss.well_mae`) of the grid of each row of ``zs``
    (n, d) at ``dtype``, shape (n,), from one build at the well cells."""
    tape = tc.GraphTape(dtype)
    labels = None if labels is None else tape.constant(labels)
    coarse, _ = generator.build(tape, tape.constant(zs), labels,
                                cells=wells.flat_cell_indices())
    return np.mean(np.abs(coarse.value - wells.values()), axis=1)


@dataclass
class LatentOptimizeConfig:
    n_restarts: int = 30
    iterations: int = 1000
    lr: float = 0.01
    lr_schedule: str = "constant"      # or "cosine" (decay to 1% of lr)
    beta1: float = 0.9
    beta2: float = 0.999
    loss: DataLossConfig = field(default_factory=DataLossConfig)
    optimize_labels: bool = False
    ball_radius: float | None = None   # project z onto radius r*sqrt(d); off by default
    rng_seed: int = 0
    dtype: str = "float64"
    threads: int = 1

    def __post_init__(self):
        check_schedule(self.lr_schedule)


@dataclass
class RestartRecord:
    index: int
    z: np.ndarray
    labels: np.ndarray | None
    loss_history: np.ndarray
    well_mae: float
    aborted: bool = False
    note: str = ""

    def to_json_dict(self):
        return {
            "index": self.index,
            "z": self.z.tolist(),
            "labels": None if self.labels is None else self.labels.tolist(),
            "loss_history": [float(v) for v in self.loss_history],
            "well_mae": self.well_mae,
            "aborted": self.aborted,
            "note": self.note,
        }


@dataclass
class InversionResult:
    method: str
    rng_seed: int
    restarts: list
    wall_clock_s: float = 0.0
    meta: dict = field(default_factory=dict)

    def ok(self):
        return [r for r in self.restarts if not r.aborted]

    def best(self):
        good = self.ok()
        if not good:
            raise InversionError("all restarts aborted")
        return min(good, key=lambda r: r.well_mae)

    def latents(self):
        return np.array([r.z for r in self.ok()])

    def well_maes(self):
        return np.array([r.well_mae for r in self.ok()])

    def to_json_dict(self, include_timing=False):
        # timing is excluded by default so artifacts stay byte-reproducible
        out = {
            "method": self.method,
            "rng_seed": self.rng_seed,
            "restarts": [r.to_json_dict() for r in self.restarts],
            "meta": self.meta,
        }
        if include_timing:
            out["wall_clock_s"] = self.wall_clock_s
        return out


def _project_ball(z, radius):
    norm = float(np.linalg.norm(z))
    cap = radius * math.sqrt(z.size)
    if norm > cap:
        return z * (cap / norm)
    return z


def _run_restart(args):
    generator, observations, config, index = args
    dtype = np.dtype(config.dtype)
    params = {"z": sample_prior(index + 1, generator.latent_dim, config.rng_seed)[index]}
    if config.optimize_labels:
        if generator.label_dim == 0:
            raise InversionError("generator has no labels to co-optimize")
        params["labels"] = neutral_labels(generator.label_dim)
    loss_fn = DataLoss(observations, config.loss, geometry=generator.geometry)

    def objective(tape, nodes, step):
        coarse, _ = generator.build(tape, nodes["z"], nodes.get("labels"),
                                    cells=loss_fn.cells)
        return loss_fn.build(tape, coarse, z=nodes["z"])

    def constrain(p):
        if config.ball_radius is not None:
            p["z"] = _project_ball(p["z"], config.ball_radius)
        if "labels" in p:
            p["labels"] = np.clip(p["labels"], 0.0, 1.0)

    history, aborted = descend(objective, params, dtype, config.iterations, config.lr,
                               config.lr_schedule, config.beta1, config.beta2,
                               constrain=constrain)
    note = ""
    if aborted:
        note = f"non-finite loss at iteration {len(history) - 1}"
    else:
        tape = tc.GraphTape(dtype)
        final = objective(tape, {k: tape.constant(v) for k, v in params.items()}, None)
        history.append(float(final.value))

    mae = (float(_generator_well_mae(generator, params["z"][None], observations.wells,
                                     params.get("labels"), dtype)[0])
           if observations.wells is not None else math.nan)
    return RestartRecord(index=index, z=params["z"],
                         labels=params.get("labels"),
                         loss_history=np.asarray(history),
                         well_mae=mae, aborted=aborted, note=note)


def latent_optimize(generator, observations, config=None):
    """Independent Adam restarts on the latent; generator weights untouched.

    Restart i is seeded by (rng_seed, i) alone, so the result is identical
    for any worker count.
    """
    config = config or LatentOptimizeConfig()
    t0 = time.perf_counter()
    jobs = [(generator, observations, config, i) for i in range(config.n_restarts)]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            restarts = list(pool.map(_run_restart, jobs))
    else:
        restarts = [_run_restart(j) for j in jobs]
    restarts.sort(key=lambda r: r.index)
    return InversionResult(method="latent-opt", rng_seed=config.rng_seed,
                           restarts=restarts,
                           wall_clock_s=time.perf_counter() - t0,
                           meta={"iterations": config.iterations, "lr": config.lr})


# ---------------------------------------------------------------------------
# pivotal tuning

@dataclass
class PivotalTuneConfig:
    steps: int = 500
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    locality_weight: float = 1.0       # math.inf disables the data term
    anchors_per_step: int = 16
    pivots_per_step: int = 4           # 0: every pivot every step
    loss: DataLossConfig = field(default_factory=DataLossConfig)
    mode: str = "shared"               # or "per_pivot"
    rng_seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.mode not in ("shared", "per_pivot"):
            raise InversionError(f"unknown tuning mode {self.mode!r}")


@dataclass
class TuneResult:
    mode: str
    generators: list
    pivots: np.ndarray
    mae_before: np.ndarray
    mae_after: np.ndarray
    loss_history: list
    wall_clock_s: float = 0.0

    def generator_for(self, pivot_index):
        return self.generators[0] if self.mode == "shared" else self.generators[pivot_index]

    def to_json_dict(self, include_timing=False):
        out = {
            "mode": self.mode,
            "pivots": self.pivots.tolist(),
            "mae_before": self.mae_before.tolist(),
            "mae_after": self.mae_after.tolist(),
            "loss_history": [[float(v) for v in h] for h in self.loss_history],
        }
        if include_timing:
            out["wall_clock_s"] = self.wall_clock_s
        return out


def _tune_one(generator, pivots, observations, config):
    dtype = np.dtype(config.dtype)
    loss_fn = DataLoss(observations, config.loss, geometry=generator.geometry)
    untuned = generator.weights()
    params = {k: v.astype(np.float64) for k, v in untuned.items()}
    if math.isinf(config.locality_weight):
        data_term_on, lam = False, 1.0  # anchor-only objective
    else:
        data_term_on, lam = True, config.locality_weight
    n_pivots = len(pivots)
    batch = config.pivots_per_step or n_pivots
    batch = min(batch, n_pivots)

    def objective(tape, wnodes, step):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(config.rng_seed), 7, step))))
        total = None

        if data_term_on:
            chosen = rng.permutation(n_pivots)[:batch]
            coarse, _ = generator.build(tape, tape.constant(pivots[chosen]), weights=wnodes,
                                        cells=loss_fn.cells)
            total = loss_fn.build(tape, coarse)  # the batch mean

        if lam > 0 and config.anchors_per_step > 0:
            z_tilde = np.empty((config.anchors_per_step, generator.latent_dim))
            for row in z_tilde:
                which = rng.integers(n_pivots)
                alpha = rng.uniform()
                fresh = rng.standard_normal(generator.latent_dim)
                row[:] = alpha * pivots[which] + (1.0 - alpha) * fresh
            ref_tape = tc.GraphTape(dtype)  # untuned weights
            ref_coarse, ref_depo = generator.build(ref_tape, ref_tape.constant(z_tilde))
            coarse, depo = generator.build(tape, tape.constant(z_tilde), weights=wnodes)
            anchor = lam * (tc.mean_all(tc.square(coarse - tape.constant(ref_coarse.value)))
                            + tc.mean_all(tc.square(depo - tape.constant(ref_depo.value))))
            total = anchor if total is None else total + anchor
        return total

    history, diverged = descend(objective, params, dtype, config.steps, config.lr,
                                beta1=config.beta1, beta2=config.beta2)
    if diverged:
        raise InversionError(f"pivotal tuning diverged at step {len(history) - 1}")
    tuned = generator.with_weights(
        {k: v.astype(untuned[k].dtype) for k, v in params.items()})
    return tuned, history


def pivotal_tune(generator, pivots, observations, config=None):
    """Fine-tune generator weights around fixed pre-inverted pivot latents.

    The data mismatch at the pivots is minimized while random latents near
    the pivots are anchored to the original generator's outputs, keeping the
    update local. Requires pivots: tuning from scratch is rejected.
    """
    config = config or PivotalTuneConfig()
    pivots = np.atleast_2d(np.asarray(pivots, dtype=np.float64))
    if pivots.size == 0:
        raise InversionError(
            "pivotal tuning requires pre-inverted pivot latents; "
            "random starts are not accepted")
    if observations.wells is None:
        raise InversionError("pivotal tuning needs well observations to score pivots")

    t0 = time.perf_counter()
    mae_before = _generator_well_mae(generator, pivots, observations.wells)
    if config.mode == "shared":
        jobs = [(pivots, config)]
    else:
        jobs = [(z[None, :], replace(config, rng_seed=config.rng_seed + i))
                for i, z in enumerate(pivots)]
    generators, histories = [], []
    for job_pivots, job_config in jobs:
        tuned, history = _tune_one(generator, job_pivots, observations, job_config)
        generators.append(tuned)
        histories.append(history)
    mae_after = np.concatenate([_generator_well_mae(tuned, job_pivots, observations.wells)
                                for tuned, (job_pivots, _) in zip(generators, jobs)])
    return TuneResult(mode=config.mode, generators=generators, pivots=pivots,
                      mae_before=mae_before, mae_after=mae_after, loss_history=histories,
                      wall_clock_s=time.perf_counter() - t0)
