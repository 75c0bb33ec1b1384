"""Span tracing from outside the program, and isolated per-stage replays.

:class:`Tracer` replaces the public functions and methods of each fluvinv
module with timing wrappers while it is installed, and puts the original
objects back when it is removed. Spans nest through a stack, so every span
knows its parent and its self time (its duration minus that of its child
spans). Totals are kept per (bucket, parent, name) in memory; no span is
written anywhere while the program runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from fluvinv import generators, geophysics, survey
from fluvinv import tensors as tc
from fluvinv.inversion import amortized, loss, mcmc, networks, optimize, variational

from . import cases

ROOT = "<root>"


def _tensor_primitives():
    return [n for n in tc.__all__
            if inspect.isfunction(getattr(tc, n)) and n != "gradient_check"]


def targets():
    """(owner, attribute, span name, module) for every traced public callable."""
    out = [(tc, n, f"tensors.{n}", "tensors") for n in _tensor_primitives()]
    out.append((tc.GraphTape, "backward", "tensors.backward", "tensors"))
    for cls in (generators.ProceduralGenerator, generators.NeuralGenerator):
        out += [(cls, "build", "generators.build", "generators"),
                (cls, "generate", "generators.generate", "generators")]
    out.append((generators, "sample_prior", "generators.sample_prior", "generators"))
    out += [(survey, n, f"survey.{n}", "survey") for n in ("place_wells", "extract_well_data")]
    out += [(geophysics, n, f"geophysics.{n}", "geophysics")
            for n in ("rock_physics_nodes", "rock_physics", "reflectivity_nodes", "build_psf")]
    out += [(geophysics.SeismicModel, n, f"geophysics.SeismicModel.{n}", "geophysics")
            for n in ("average_velocity", "build", "forward")]
    out += [(loss.DataLoss, "build", "inversion.loss.DataLoss.build", "inversion.loss"),
            (loss, "well_mae", "inversion.loss.well_mae", "inversion.loss"),
            (optimize.Adam, "step", "inversion.optimize.Adam.step", "inversion.optimize"),
            (optimize, "latent_optimize", "inversion.optimize.latent_optimize",
             "inversion.optimize"),
            (optimize, "pivotal_tune", "inversion.optimize.pivotal_tune", "inversion.optimize"),
            (variational.FlowModel, "transform", "inversion.variational.FlowModel.transform",
             "inversion.variational"),
            (variational.FlowModel, "sample", "inversion.variational.FlowModel.sample",
             "inversion.variational"),
            (variational, "variational_infer", "inversion.variational.variational_infer",
             "inversion.variational"),
            (amortized.InferenceNet, "apply", "inversion.amortized.InferenceNet.apply",
             "inversion.amortized"),
            (amortized.InferenceNet, "sample", "inversion.amortized.InferenceNet.sample",
             "inversion.amortized"),
            (amortized, "train_inference_network",
             "inversion.amortized.train_inference_network", "inversion.amortized"),
            (networks, "mlp_apply", "inversion.networks.mlp_apply", "inversion.networks"),
            (mcmc, "dream_zs", "inversion.mcmc.dream_zs", "inversion.mcmc"),
            (mcmc, "gelman_rubin", "inversion.mcmc.gelman_rubin", "inversion.mcmc"),
            # the benchmark's own black-box target, timed as the layer DREAM calls
            (cases.Case, "log_posterior", "inversion.mcmc.log_posterior", "inversion.mcmc")]
    return out


def conv3d_flop(x, w):
    """Forward multiply-adds of one conv3d call, counted as 2 flop each."""
    xs = np.shape(getattr(x, "value", x))
    ws = np.shape(getattr(w, "value", w))
    return 2.0 * ws[0] * ws[1] * ws[2] * ws[3] * ws[4] * xs[1] * xs[2] * xs[3]


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self):
        self.bucket = "methods"
        self.stats = defaultdict(Stat)      # (bucket, parent, name) -> Stat
        self.modules = {}                   # span name -> module
        self.conv3d_flop = defaultdict(float)  # bucket -> forward flop
        self._stack = []                    # [name, child seconds]
        self._patches = []                  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def span(self, name, module="bench"):
        """Context manager recording one span, for the benchmark's own code."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer._stack.append([name, 0.0])
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                tracer._close(name, module, time.perf_counter() - self.t0)

        return _Span()

    def _close(self, name, module, seconds):
        _, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else ROOT
        st = self.stats[(self.bucket, parent, name)]
        st.calls += 1
        st.total += seconds
        st.self_time += seconds - child
        self.modules[name] = module
        if self._stack:
            self._stack[-1][1] += seconds

    def wrap(self, fn, name, module):
        """Timing wrapper around ``fn`` recording span ``name``."""
        tracer = self
        is_conv = name == "tensors.conv3d"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_conv:
                tracer.conv3d_flop[tracer.bucket] += conv3d_flop(args[0], args[1])
            tracer._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, module, time.perf_counter() - t0)

        wrapper.__fluvbench_original__ = fn
        return wrapper

    # -- install / restore -------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, module in targets():
            if inspect.isclass(owner):
                self.patch(owner, attr, name, module)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, module)
            # a function imported by name into other modules is replaced there too
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith(("fluvinv", "fluvbench")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def patch(self, owner, attr, name, module):
        """Trace ``owner.attr`` (a class or an object) until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, module))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- queries -----------------------------------------------------------
    def by_name(self, bucket, name, parent=None):
        """Summed Stat of span ``name`` in ``bucket``, optionally under ``parent``."""
        out = Stat()
        for (b, p, n), st in self.stats.items():
            if b == bucket and n == name and (parent is None or p == parent):
                out.calls += st.calls
                out.total += st.total
                out.self_time += st.self_time
        return out

    def self_by_module(self, bucket):
        """Self seconds per module in ``bucket``."""
        out = defaultdict(float)
        for (b, _, n), st in self.stats.items():
            if b == bucket:
                out[self.modules[n]] += st.self_time
        return dict(out)

    def calls_in_module(self, bucket, module, exclude=()):
        return sum(st.calls for (b, _, n), st in self.stats.items()
                   if b == bucket and self.modules[n] == module and n not in exclude)


# ---------------------------------------------------------------------------
# isolated stage replays at a workload's shapes

def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _forward_backward(build, repeats):
    """Median forward and backward seconds of ``build(tape) -> node``."""
    fwd, bwd = [], []
    for _ in range(repeats):
        tape = tc.GraphTape(np.float64)
        t0 = time.perf_counter()
        out = build(tape)
        t1 = time.perf_counter()
        tape.backward(out, seed=np.ones_like(out.value))
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return float(np.median(fwd)), float(np.median(bwd))


def psf_convolve(tape, x, kernel):
    """The separable PSF applied to a (1, Z, Y, X) node, one conv3d per axis."""
    for axis, taps in enumerate((kernel.vertical, kernel.lateral_y, kernel.lateral_x)):
        if taps.shape[0] == 1:
            x = x * float(taps[0])
            continue
        shape = [1, 1, 1, 1, 1]
        shape[2 + axis] = taps.shape[0]
        x = tc.conv3d(x, tape.constant(taps.reshape(shape)))
    return x


def replay_stages(case, repeats):
    """Forward and backward ms per call of each stage at the case's shapes.

    Stages run alone on a fresh tape with their input as a tape input, and
    the backward pass is seeded with ones. The seismic stages run on every
    workload, with the default SeismicModel at the workload's grid, so that
    they are measured where the workload itself never enters them.
    """
    gen = case.generator
    geometry = gen.geometry
    model = case.seismic_model or geophysics.SeismicModel()
    coarse = case.truth.coarse_fraction
    tune_weights = {k: np.asarray(v, dtype=np.float64)
                    for k, v in case.tune_generator.weights().items()}

    def generator_stage(tape):
        # as in latent optimization: gradient w.r.t. the latent only
        out, _ = gen.build(tape, tape.input(case.z_true))
        return out

    def tune_generator_stage(tape):
        # as in pivotal tuning: gradient w.r.t. the weights, latent fixed
        wn = {k: tape.input(v) for k, v in tune_weights.items()}
        out, _ = case.tune_generator.build(tape, tape.constant(case.z_true), weights=wn)
        return out

    def rock_stage(tape):
        rho, vp = geophysics.rock_physics_nodes(tape, tape.input(coarse), model.params)
        return rho * vp

    rho, vp = geophysics.rock_physics(coarse, model.params)
    refl = geophysics.reflectivity(case.truth, model.burden, model.params)
    v_avg = model.average_velocity(coarse, geometry)
    kernel = geophysics.build_psf(model.psf, geometry.dz, geometry.dy, geometry.dx, v_avg)
    x_refl = refl.reshape((1,) + refl.shape)

    def reflectivity_stage(tape):
        return geophysics.reflectivity_nodes(tape, tape.input(rho), tape.input(vp), geometry,
                                             model.burden, model.params)

    def psf_stage(tape):
        return psf_convolve(tape, tape.input(x_refl), kernel)

    def seismic_stage(tape):
        return model.build(tape, tape.input(coarse), geometry)

    out = {}
    for stage, build in (("generators.build", generator_stage),
                         ("generators.tune_build", tune_generator_stage),
                         ("geophysics.rock_physics", rock_stage),
                         ("geophysics.reflectivity", reflectivity_stage),
                         ("geophysics.psf_conv", psf_stage),
                         ("geophysics.seismic_build", seismic_stage)):
        fwd, bwd = _forward_backward(build, repeats)
        out[f"{stage}_ms"] = 1e3 * fwd
        out[f"{stage}_bwd_ms"] = 1e3 * bwd
    out["geophysics.average_velocity_ms"] = 1e3 * _median_time(
        lambda: model.average_velocity(coarse, geometry), repeats)
    return out
