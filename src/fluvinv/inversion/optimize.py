"""Latent optimization and pivotal tuning of generator weights."""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .. import tensors as tc
from ..generators import keyed_rng, neutral_labels, sample_prior
from ..grids import check_config
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
    """Adam over a dict of named arrays, updated as one float64 vector.

    The moments are kept flat, the arrays laid end to end in the key order
    of the first step; every later step must bring the same keys with the
    same shapes. The update is elementwise, so each entry moves exactly as
    it would in a per-array update.
    """

    def __init__(self, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._layout = None  # (key, shape, start, stop) per array
        self._m = self._v = None
        self._t = 0

    def step(self, params, grads):
        """Update params in place; returns params. Each updated entry of
        ``params`` is a view into one fresh float64 vector."""
        if self._layout is None:
            layout, start = [], 0
            for k, g in grads.items():
                shape = np.shape(g)
                stop = start + math.prod(shape)
                layout.append((k, shape, start, stop))
                start = stop
            self._layout = layout
            self._m, self._v = np.zeros(start), np.zeros(start)
        elif (grads.keys() != {k for k, *_ in self._layout}
              or any(np.shape(grads[k]) != shape for k, shape, *_ in self._layout)):
            raise InversionError(f"Adam: step over {sorted(grads)} with the moments of "
                                 f"{[k for k, *_ in self._layout]}")
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self._t
        corr2 = 1.0 - b2 ** self._t
        g = np.concatenate([np.ravel(grads[k]) for k, *_ in self._layout], dtype=np.float64)
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        new = (np.concatenate([np.ravel(params[k]) for k, *_ in self._layout], dtype=np.float64)
               - self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps))
        for k, shape, start, stop in self._layout:
            params[k] = new[start:stop].reshape(shape)
        return params


def check_schedule(name):
    """Reject a learning-rate schedule :func:`descend` does not know."""
    if name not in ("constant", "cosine"):
        raise InversionError(f"unknown lr schedule {name!r}")


def descend(objective, params, dtype, steps, lr, schedule="constant",
            constrain=None, rows=None):
    """Minimize ``objective`` by Adam over the named arrays in ``params``.

    Each step records a fresh tape with one input node per entry of
    ``params`` and calls ``objective(tape, nodes, step)`` for the loss node.
    ``params`` is updated in place; ``constrain(params)``, if given, runs
    after every update. The "cosine" schedule decays the rate from ``lr`` to
    1% of it over ``steps``.

    The loss is a scalar, or with ``rows=R`` a vector of R independent row
    losses, shape (R,): row i of the loss depends only on row i of every
    entry of ``params``, each with a leading axis of R rows. The gradient of
    their sum is row i's own gradient in row i, and Adam is elementwise, so
    every row descends as it would alone.

    Non-finite policy: a descent (or a row) stops at its first non-finite
    loss, before updating, so its parameters keep the last finite iterate
    and its history ends with the non-finite value; other rows go on.
    Returns ``(history, halted)``: a list of floats and a bool for a scalar
    loss, a list of R such lists and a bool array (R,) for row losses.
    """
    opt = Adam(lr=lr)
    shape = () if rows is None else (rows,)
    history = [[] for _ in range(rows or 1)]
    live = [True] * (rows or 1)
    for step in range(steps):
        if schedule == "cosine":
            opt.lr = lr * (0.01 + 0.99 * 0.5 * (1.0 + math.cos(math.pi * step / steps)))
        tape = tc.GraphTape(dtype)
        nodes = {k: tape.input(v) for k, v in params.items()}
        loss = objective(tape, nodes, step)
        if loss.value.shape != shape:
            raise InversionError(f"loss node has shape {loss.value.shape}, expected {shape}")
        for i, value in enumerate(loss.value.reshape(-1).tolist()):
            if live[i]:
                history[i].append(value)
                live[i] = math.isfinite(value)
        if not any(live):
            break
        grads = tape.backward(loss)
        grads = {k: grads.wrt(n) for k, n in nodes.items()}
        if all(live):
            opt.step(params, grads)
        else:  # halted rows take no gradient and keep their last finite iterate
            halted = ~np.array(live)
            before = dict(params)
            opt.step(params, {k: np.where(halted.reshape((-1,) + (1,) * (g.ndim - 1)), 0.0, g)
                              for k, g in grads.items()})
            for k, old in before.items():
                params[k][halted] = old[halted]
        if constrain is not None:
            constrain(params)
    if rows is None:
        return history[0], not live[0]
    return history, ~np.array(live)


def _generator_well_mae(generator, zs, wells, dtype, labels=None):
    """Well MAE (:func:`.loss.well_mae`) of the grid of each row of ``zs``
    (n, d) at ``dtype``, shape (n,), from one build at the well cells.
    ``labels`` are shared, shape (label_dim,), or per row, (n, label_dim)."""
    tape = tc.GraphTape(dtype)
    labels = None if labels is None else tape.constant(labels)
    coarse, _ = generator.build(tape, tape.constant(zs), labels,
                                cells=wells.flat_cell_indices(), depo=False)
    return np.mean(np.abs(coarse.value - wells.values()), axis=1)


@dataclass
class LatentOptimizeConfig:
    n_restarts: int = 30
    iterations: int = 1000
    lr: float = 0.01
    lr_schedule: str = "constant"      # or "cosine" (decay to 1% of lr)
    loss: DataLossConfig = field(default_factory=DataLossConfig)
    optimize_labels: bool = False
    ball_radius: float | None = None   # project z onto radius r*sqrt(d); off by default
    rng_seed: int = 0
    dtype: str = "float64"
    threads: int = 1

    def __post_init__(self):
        check_schedule(self.lr_schedule)
        check_config(self, InversionError, ("n_restarts threads", ">=", 1),
                     ("iterations rng_seed", ">=", 0), ("lr ball_radius", ">", 0.0))


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


# Restarts share a graph while rows x (cells built per row) stays within
# this many cells: with the well term only, every restart of a procedural
# case shares one graph; a full-scale seismic row (262,144 cells) keeps its
# own, since stacking whole-grid rows on one tape costs more memory than the
# bookkeeping it saves.
_CELL_BUDGET = 2 ** 16


def _project_ball(z, radius):
    """``z``, one latent (d,) or rows (R, d), with every row longer than
    radius * sqrt(d) scaled back onto that sphere."""
    rows = z.reshape(-1, z.shape[-1])
    norms = np.array([np.linalg.norm(row) for row in rows])  # each as a lone latent's
    cap = radius * math.sqrt(z.shape[-1])
    over = norms > cap
    if not over.any():
        return z
    scale = np.ones(len(rows))
    scale[over] = cap / norms[over]
    return (rows * scale[:, None]).reshape(z.shape)


def _run_block(args):
    """Restarts ``start`` .. ``stop - 1`` as one descent over their rows; a
    one-row block records the unbatched graph of a single latent."""
    generator, observations, config, start, stop = args
    dtype = np.dtype(config.dtype)
    n = stop - start
    params = {"z": sample_prior(stop, generator.latent_dim, config.rng_seed)[start:]}
    if config.optimize_labels:
        if generator.label_dim == 0:
            raise InversionError("generator has no labels to co-optimize")
        params["labels"] = np.tile(neutral_labels(generator.label_dim), (n, 1))
    rows = n if n > 1 else None
    if rows is None:
        params = {k: v[0] for k, v in params.items()}
    loss_fn = DataLoss(observations, config.loss, geometry=generator.geometry)

    def objective(tape, nodes, step):
        coarse, _ = generator.build(tape, nodes["z"], nodes.get("labels"),
                                    cells=loss_fn.cells, depo=False)
        return loss_fn.build(tape, coarse, z=nodes["z"], rows=rows is not None)

    def constrain(p):
        if config.ball_radius is not None:
            p["z"] = _project_ball(p["z"], config.ball_radius)
        if "labels" in p:
            p["labels"] = np.clip(p["labels"], 0.0, 1.0)

    histories, halted = descend(objective, params, dtype, config.iterations, config.lr,
                                config.lr_schedule, constrain=constrain, rows=rows)
    if rows is None:
        histories, halted = [histories], np.array([halted])
    if not halted.all():
        tape = tc.GraphTape(dtype)
        final = objective(tape, {k: tape.constant(v) for k, v in params.items()}, None)
        values = np.asarray(final.value, dtype=np.float64).reshape(-1)
        for i in np.flatnonzero(~halted):
            histories[i].append(float(values[i]))
    if rows is None:
        params = {k: v[None] for k, v in params.items()}
    labels = params.get("labels")
    maes = (_generator_well_mae(generator, params["z"], observations.wells, dtype, labels)
            if observations.wells is not None else np.full(n, math.nan))
    return [RestartRecord(index=start + i, z=params["z"][i].copy(),
                          labels=None if labels is None else labels[i].copy(),
                          loss_history=np.asarray(histories[i]), well_mae=float(maes[i]),
                          aborted=bool(halted[i]),
                          note=(f"non-finite loss at iteration {len(histories[i]) - 1}"
                                if halted[i] else ""))
            for i in range(n)]


def latent_optimize(generator, observations, config=None):
    """Independent Adam restarts on the latent; generator weights untouched.

    Restart i starts from row i of :func:`.sample_prior` ``(rng_seed, i)``.
    Consecutive restarts are descended together as one block of rows: each
    step records one tape whose latent input is (rows, d), and the loss is
    the sum of the rows' losses, so every row takes exactly its own restart's
    gradient and Adam update. A block holds as many rows as fit in a fixed
    budget of rows x cells built per row: the well cells, or the whole grid
    with the seismic term on or for a generator that builds the whole grid
    even at cells (``builds_at_cells`` False, the neural one). With the well
    term only, every restart of a procedural case shares one graph; a
    full-scale seismic row keeps its own.

    Everything else stays per row: automatic term weights freeze at the
    row's own first evaluation; the ball projection and the label clip act
    on each row; a row whose loss goes non-finite stops before its update,
    keeps its last finite iterate and is ``aborted`` with its own note while
    the others go on; the final loss and the well MAE are the row's own.

    ``threads > 1`` maps the blocks over worker processes. The blocks do not
    depend on the worker count, so neither does the result.
    """
    config = config or LatentOptimizeConfig()
    t0 = time.perf_counter()
    cells = DataLoss(observations, config.loss, geometry=generator.geometry).cells
    if cells is None or not generator.builds_at_cells:
        per_row = generator.geometry.n_cells
    else:
        per_row = max(len(cells), 1)
    size = max(1, _CELL_BUDGET // per_row)
    jobs = [(generator, observations, config, start, min(start + size, config.n_restarts))
            for start in range(0, config.n_restarts, size)]
    if config.threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(config.threads, len(jobs))) as pool:
            blocks = list(pool.map(_run_block, jobs))
    else:
        blocks = [_run_block(j) for j in jobs]
    return InversionResult(method="latent-opt", rng_seed=config.rng_seed,
                           restarts=[r for block in blocks for r in block],
                           wall_clock_s=time.perf_counter() - t0,
                           meta={"iterations": config.iterations, "lr": config.lr})


# ---------------------------------------------------------------------------
# pivotal tuning

@dataclass
class PivotalTuneConfig:
    steps: int = 500
    lr: float = 1e-3
    locality_weight: float = 1.0       # weight of the anchor term
    anchors_per_step: int = 16
    pivots_per_step: int = 4           # 0: every pivot every step
    loss: DataLossConfig = field(default_factory=DataLossConfig)
    mode: str = "shared"               # or "per_pivot"
    rng_seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.mode not in ("shared", "per_pivot"):
            raise InversionError(f"unknown tuning mode {self.mode!r}")
        check_config(self, InversionError, ("locality_weight", ">=", 0.0), ("lr", ">", 0.0),
                     ("steps anchors_per_step pivots_per_step rng_seed", ">=", 0))


@dataclass
class TuneResult:
    mode: str
    generators: list
    pivots: np.ndarray
    mae_before: np.ndarray
    mae_after: np.ndarray
    loss_history: list
    wall_clock_s: float = 0.0

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
    lam = config.locality_weight
    n_pivots = len(pivots)
    batch = config.pivots_per_step or n_pivots
    batch = min(batch, n_pivots)

    def objective(tape, wnodes, step):
        rng = keyed_rng(config.rng_seed, 7, step)
        chosen = rng.permutation(n_pivots)[:batch]
        coarse, _ = generator.build(tape, tape.constant(pivots[chosen]), weights=wnodes,
                                    cells=loss_fn.cells, depo=False)
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
            total = total + anchor
        return total

    history, diverged = descend(objective, params, dtype, config.steps, config.lr)
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
    if observations.wells is None or not observations.wells.wells:
        raise InversionError("pivotal tuning needs at least one well to score pivots")

    t0 = time.perf_counter()
    mae_before = _generator_well_mae(generator, pivots, observations.wells, config.dtype)
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
    mae_after = np.concatenate(
        [_generator_well_mae(tuned, job_pivots, observations.wells, config.dtype)
         for tuned, (job_pivots, _) in zip(generators, jobs)])
    return TuneResult(mode=config.mode, generators=generators, pivots=pivots,
                      mae_before=mae_before, mae_after=mae_after, loss_history=histories,
                      wall_clock_s=time.perf_counter() - t0)
