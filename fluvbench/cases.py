"""Workloads: case construction from a workload seed, and the five inversion
methods run at each workload's fixed budget through the public API only.

Why these two workloads:

* ``desk-wells`` -- procedural generator at 32x32x8 against four wells.
  Latent optimization, the flow, the inference net and DREAM run on small
  graphs, so time goes to tape bookkeeping and the inversion loops.
  Pivotal tuning tunes a neural generator (random weights) at the same grid
  around the latent restarts, so ``tensors.conv3d``/``upsample2``/``dense``
  with many channels and weight gradients are exercised too. The seismic
  forward model is never entered.
* ``full-seismic`` -- procedural generator at the paper's 128x128x16 grid
  with wells plus seismic. Latent optimization and pivotal tuning invert
  against the seismic cube, so the geophysics layers, large arrays and
  peak memory dominate. The three sampling methods run against the wells
  only, at full scale: with the seismic term a single DREAM run at the
  smallest chain length Gelman-Rubin accepts would cost about 16 s.

A third workload, the neural generator for every method, was measured and
dropped: on a shared 2-core virtual machine whose speed drifts by 10-40%
over minutes, three workloads left each run too little time to be steady.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from fluvinv import generators, geophysics, inversion, survey
from fluvinv import tensors as tc
from fluvinv.grids import GridGeometry

from . import speed

LATENT_DIM = 8
# Gaussian well noise of the flow and DREAM likelihood, in fraction units;
# wide enough that DREAM chains keep moving on every workload
SIGMA = 0.3
# the final steps whose mean ELBO (flow) or loss (amortized) is the quality figure
FINAL_STEPS = 10

# The default PlacementPolicy needs a 1 km exclusion around four legacy wells,
# which does not fit on a 32x32 grid of 50 m cells (place_wells raises
# SurveyError). Desk workloads scale the radii down the same way the
# four-well self-inversion test does.
DESK_POLICY = survey.PlacementPolicy(
    legacy=survey.StagePolicy(count=4, exclusion_m=300.0, ramp_m=600.0),
    extra=survey.StagePolicy(count=0, exclusion_m=150.0, ramp_m=300.0),
    legacy_in_stage2=survey.StagePolicy(count=0, exclusion_m=100.0, ramp_m=200.0))

METHODS = ("latent", "tune", "flow", "amortized", "dream")


@dataclass(frozen=True)
class Workload:
    """A named case family and the fixed budget of every method on it."""

    name: str
    tune_generator: str         # generator pivotal tuning tunes: "procedural" or "neural"
    extents: tuple              # (nx, ny, nz)
    seismic: bool               # latent and tune invert against seismic too
    policy: survey.PlacementPolicy
    setups_per_round: int       # timed case set-ups per round (setup_s is their median)
    latent: dict
    tune: dict
    flow: dict
    amortized: dict
    dream: dict
    posterior_draws: int = 32   # draws from the fitted flow and inference net

    def budgets(self):
        return {m: dict(getattr(self, m)) for m in METHODS}


WORKLOADS = {
    "desk-wells": Workload(
        name="desk-wells", tune_generator="neural", extents=(32, 32, 8), seismic=False,
        policy=DESK_POLICY, setups_per_round=5,
        latent=dict(n_restarts=2, iterations=60, lr=0.15, lr_schedule="cosine"),
        tune=dict(steps=3, lr=1e-3, anchors_per_step=2, pivots_per_step=2),
        flow=dict(n_layers=4, hidden=(16,), steps=30, batch=4, lr=0.01),
        amortized=dict(hidden=(32, 32), steps=30, batch=4, lr=1e-3),
        dream=dict(n_chains=4, burn_in=40, generations=40)),
    "full-seismic": Workload(
        name="full-seismic", tune_generator="procedural", extents=(128, 128, 16),
        seismic=True, policy=survey.PlacementPolicy(), setups_per_round=3,
        latent=dict(n_restarts=2, iterations=1, lr=0.15, lr_schedule="cosine"),
        tune=dict(steps=1, lr=1e-3, anchors_per_step=1, pivots_per_step=1),
        flow=dict(n_layers=4, hidden=(16,), steps=10, batch=2, lr=0.01),
        amortized=dict(hidden=(32, 32), steps=10, batch=2, lr=1e-3),
        dream=dict(n_chains=4, burn_in=10, generations=20)),
}


def case_seed(workload_seed):
    """32-bit seed of every random draw in a case, derived from the workload seed."""
    return int(np.random.SeedSequence(int(workload_seed)).generate_state(1)[0])


@dataclass
class Case:
    """Everything a method needs, built from the workload seed."""

    workload: Workload
    seed: int
    generator: object                  # procedural; every method but pivotal tuning
    tune_generator: object             # the generator pivotal tuning tunes
    z_true: np.ndarray
    truth: object                      # ModelGrid drawn from the prior
    wells: survey.WellDataset
    seismic_model: geophysics.SeismicModel | None
    observations: inversion.Observations          # latent and tune
    loss_config: inversion.DataLossConfig
    sampler_observations: inversion.Observations  # flow, amortized, DREAM
    sampler_loss_config: inversion.DataLossConfig
    loglik: object                     # builder (tape, z) -> log p(wells | z)
    data_loss: inversion.DataLoss      # the latent objective, used by the gate
    logp_calls: int = 0
    logp_nonfinite: int = 0

    def log_posterior(self, z):
        """Unnormalized log posterior over the latent: Gaussian wells, N(0, I) prior."""
        self.logp_calls += 1
        tape = tc.GraphTape(np.float64)
        value = float(self.loglik(tape, tape.constant(z)).value) - 0.5 * float(z @ z)
        if not math.isfinite(value):
            self.logp_nonfinite += 1
        return value


def make_generators(workload, seed):
    """(generator, tune generator); the neural one gets seed-derived random weights."""
    nx, ny, nz = workload.extents
    geometry = GridGeometry(nx=nx, ny=ny, nz=nz)
    gen = generators.ProceduralGenerator(geometry, latent_dim=LATENT_DIM, label_dim=0)
    if workload.tune_generator == "procedural":
        return gen, gen
    descriptor = generators.GeneratorDescriptor(latent_dim=LATENT_DIM, out_extents=(nx, ny, nz))
    return gen, generators.NeuralGenerator.random_init(geometry, descriptor, rng_seed=seed)


def setup_case(workload, workload_seed):
    """Build generator, truth, wells, observed seismic and objective objects."""
    seed = case_seed(workload_seed)
    gen, tune_gen = make_generators(workload, seed)
    z_true = generators.sample_prior(1, gen.latent_dim, seed)[0]
    truth = gen.generate(z_true, dtype=np.float64)
    legacy, extras = survey.place_wells([truth.coarse_fraction.mean(axis=0)],
                                        workload.policy, rng_seed=seed)
    wells = survey.extract_well_data(truth, legacy + extras[0])
    seismic_model = cube = None
    if workload.seismic:
        seismic_model = geophysics.SeismicModel()
        cube = seismic_model.forward(truth)
    observations = inversion.Observations(wells=wells, seismic=cube,
                                          seismic_model=seismic_model)
    loss_config = inversion.DataLossConfig(use_seismic=workload.seismic,
                                           metric="absolute", lambda_z=1e-3)
    sampler_observations = inversion.Observations(wells=wells)
    sampler_loss_config = inversion.DataLossConfig(metric="absolute", lambda_z=1e-3)
    return Case(
        workload=workload, seed=seed, generator=gen, tune_generator=tune_gen,
        z_true=z_true, truth=truth,
        wells=wells, seismic_model=seismic_model, observations=observations,
        loss_config=loss_config, sampler_observations=sampler_observations,
        sampler_loss_config=sampler_loss_config,
        loglik=inversion.gaussian_data_loglik(gen, sampler_observations, SIGMA),
        data_loss=inversion.DataLoss(observations, loss_config, geometry=gen.geometry))


@dataclass
class MethodRun:
    """One timed method call: wall time, quality figure and operation counts.

    ``probe_s`` is the mean time of the machine-speed probes either side of
    the call (see :mod:`fluvbench.speed`).
    """

    method: str
    seconds: float
    quality: float
    attempted: int
    failed: int
    warnings: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    output: object = None
    probe_s: float = math.nan


PSF_WARNING = "lateral PSF width"
CLAMP_WARNING = "coupling scale clamped"


def count_warnings(caught, counts):
    """Add recorded warnings to ``counts`` by kind: psf, clamp or other."""
    for w in caught:
        text = str(w.message)
        kind = "psf" if PSF_WARNING in text else "clamp" if CLAMP_WARNING in text else "other"
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _timed(fn):
    """Run fn, returning (seconds, result, warning counts by kind)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
    return seconds, result, count_warnings(caught, {})


def run_latent(case):
    wl = case.workload
    cfg = inversion.LatentOptimizeConfig(**wl.latent, loss=case.loss_config,
                                         rng_seed=case.seed, dtype="float64", threads=1)
    seconds, res, warn = _timed(
        lambda: inversion.latent_optimize(case.generator, case.observations, cfg))
    ok = res.ok()
    quality = min(r.well_mae for r in ok) if ok else math.nan
    return MethodRun("latent", seconds, quality, attempted=len(res.restarts),
                     failed=len(res.restarts) - len(ok), warnings=warn, output=res)


def run_tune(case, pivots):
    wl = case.workload
    cfg = inversion.PivotalTuneConfig(**wl.tune, loss=case.loss_config,
                                      rng_seed=case.seed, dtype="float64")
    t0 = time.perf_counter()
    try:
        seconds, res, warn = _timed(
            lambda: inversion.pivotal_tune(case.tune_generator, pivots, case.observations,
                                           cfg))
    except inversion.InversionError as exc:
        return MethodRun("tune", time.perf_counter() - t0, math.nan, attempted=1, failed=1,
                         extra={"error": str(exc)})
    return MethodRun("tune", seconds, float(np.mean(res.mae_after)), attempted=1,
                     failed=0, warnings=warn, output=res)


def run_flow(case):
    wl = case.workload
    cfg = inversion.FlowConfig(**wl.flow, sigma=SIGMA, n_posterior=wl.posterior_draws,
                               rng_seed=case.seed, dtype="float64")
    seconds, res, warn = _timed(
        lambda: inversion.variational_infer(case.loglik, case.generator.latent_dim, cfg))
    failed = int(res.halted or not np.all(np.isfinite(res.posterior)))
    return MethodRun("flow", seconds, float(np.mean(res.elbo_history[-FINAL_STEPS:])),
                     attempted=1, failed=failed, warnings=warn, output=res)


def run_amortized(case):
    wl = case.workload
    cfg = inversion.InferenceNetConfig(**wl.amortized, loss=case.sampler_loss_config,
                                       rng_seed=case.seed, dtype="float64")

    def fit_and_draw():
        res = inversion.train_inference_network(case.generator,
                                                case.sampler_observations, cfg)
        return res, res.net.sample(wl.posterior_draws, rng_seed=case.seed)

    seconds, (res, draws), warn = _timed(fit_and_draw)
    failed = int(res.halted or not np.all(np.isfinite(draws)))
    return MethodRun("amortized", seconds, float(np.mean(res.loss_history[-FINAL_STEPS:])),
                     attempted=1, failed=failed, warnings=warn, output=res)


def run_dream(case):
    wl = case.workload
    cfg = inversion.DreamConfig(**wl.dream, rng_seed=case.seed)
    calls0, bad0 = case.logp_calls, case.logp_nonfinite
    seconds, ens, warn = _timed(
        lambda: inversion.dream_zs(case.log_posterior, case.generator.latent_dim, cfg))
    # the first n_chains evaluations score the initial states, not proposals
    proposals = case.logp_calls - calls0 - cfg.n_chains
    # R-hat over the whole post-burn-in window, not ChainEnsemble's default
    # second half: with these short chains every chain can sit still through
    # the second half, which makes R-hat infinite
    rhat = inversion.gelman_rubin(ens.states[:, ens.burn_in:, :])
    return MethodRun("dream", seconds, float(np.max(rhat)), attempted=proposals,
                     failed=case.logp_nonfinite - bad0, warnings=warn,
                     extra={"proposals": proposals, "accept_rate": ens.accept_rate},
                     output=ens)


def run_round(case, span=None):
    """All five methods on one case; the latent restarts are the tuning pivots.

    The speed probe runs before the first method call and after each one;
    a call's ``probe_s`` is the mean of the probes either side of it.
    ``span(name)`` optionally returns a context manager wrapped around each
    method call (the tracer's root span for that method).
    """
    before = speed.probe()

    def call(method, fn, *args):
        nonlocal before
        if span is None:
            out = fn(*args)
        else:
            with span(f"bench.{method}"):
                out = fn(*args)
        after = speed.probe()
        out.probe_s = 0.5 * (before + after)
        before = after
        return out

    latent = call("latent", run_latent, case)
    pivots = latent.output.latents()
    runs = [latent]
    if len(pivots):
        runs.append(call("tune", run_tune, case, pivots))
    else:
        runs.append(MethodRun("tune", math.nan, math.nan, attempted=1, failed=1,
                              extra={"error": "every latent restart aborted"}))
    runs += [call("flow", run_flow, case), call("amortized", run_amortized, case),
             call("dream", run_dream, case)]
    return runs
