"""One benchmark run: set-up, correctness gate, timed rounds, metrics.

A round runs the five methods once each on the workload's case, at the
workload's fixed budget. An untraced run repeats rounds until the requested
seconds have passed and reports, per method, the median calibrated time over
its rounds, and the median calibrated time of several case set-ups (see
:mod:`fluvbench.speed`); the manifest holds the raw wall-time median, the
best round and N beside them. A traced run alternates untraced and traced
rounds for the same time; the traced rounds give the per-layer metrics, in
raw wall time, and the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time
import warnings

import numpy as np

import fluvinv

from . import cases, gate, speed, tracing

END_TO_END = {
    "setup_s": "s",
    "latent_s": "s",
    "tune_s": "s",
    "flow_s": "s",
    "amortized_s": "s",
    "dream_s": "s",
    "peak_rss_mb": "MB",
}

QUALITY = {
    "latent": "latent_well_mae",
    "tune": "tune_mae_after",
    "flow": "flow_elbo",
    "amortized": "amortized_loss",
    "dream": "dream_rhat_max",
}

PER_LAYER = {
    "latent_well_mae": "fraction",
    "tune_mae_after": "fraction",
    "flow_elbo": "nats",
    "amortized_loss": "loss",
    "dream_rhat_max": "ratio",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "tensors.primitive_calls": "count",
    "tensors.backward_ms": "ms",
    "tensors.backward_calls": "count",
    "tensors.conv3d_ms": "ms",
    "tensors.conv3d_calls": "count",
    "tensors.conv3d_gflop": "GFLOP",
    "generators.build_ms": "ms",
    "generators.build_bwd_ms": "ms",
    "generators.tune_build_ms": "ms",
    "generators.tune_build_bwd_ms": "ms",
    "geophysics.rock_physics_ms": "ms",
    "geophysics.rock_physics_bwd_ms": "ms",
    "geophysics.reflectivity_ms": "ms",
    "geophysics.average_velocity_ms": "ms",
    "geophysics.average_velocity_calls": "count",
    "geophysics.build_psf_calls": "count",
    "geophysics.psf_conv_ms": "ms",
    "geophysics.psf_conv_bwd_ms": "ms",
    "geophysics.seismic_build_ms": "ms",
    "geophysics.psf_warnings": "count",
    "inversion.loss.build_ms": "ms",
    "inversion.optimize.adam_step_ms": "ms",
    "inversion.variational.transform_ms": "ms",
    "inversion.variational.clamp_warnings": "count",
    "inversion.networks.mlp_apply_ms": "ms",
    "inversion.mcmc.log_posterior_ms": "ms",
    "inversion.mcmc.proposals": "count",
    "inversion.mcmc.accept_rate": "ratio",
    "survey.place_wells_ms": "ms",
    "survey.extract_ms": "ms",
}

# (span, parent or None) behind each per-call "<layer>_ms" metric; a workload
# that never enters the span reports the isolated replay of the stage at its
# shapes instead
SPAN_MS = {
    "generators.build_ms": ("generators.build", "inversion.optimize.latent_optimize"),
    "generators.tune_build_ms": ("generators.build", "inversion.optimize.pivotal_tune"),
    "geophysics.average_velocity_ms": ("geophysics.SeismicModel.average_velocity", None),
    "geophysics.seismic_build_ms": ("geophysics.SeismicModel.build", None),
    "tensors.backward_ms": ("tensors.backward", None),
    "tensors.conv3d_ms": ("tensors.conv3d", None),
    "inversion.loss.build_ms": ("inversion.loss.DataLoss.build",
                                "inversion.optimize.latent_optimize"),
    "inversion.optimize.adam_step_ms": ("inversion.optimize.Adam.step", None),
    "inversion.variational.transform_ms": ("inversion.variational.FlowModel.transform", None),
    "inversion.networks.mlp_apply_ms": ("inversion.networks.mlp_apply", None),
    "inversion.mcmc.log_posterior_ms": ("inversion.mcmc.log_posterior", None),
}
# stages of the seismic forward, in ms per SeismicModel.build: the spans
# directly under it (rock_physics_nodes also runs on scalars for the burden
# caps and on the whole cube for the average velocity, outside this stage)
SEISMIC_STAGES = {
    "geophysics.rock_physics_ms": ("geophysics.rock_physics_nodes",),
    "geophysics.reflectivity_ms": ("geophysics.reflectivity_nodes",),
    "geophysics.psf_conv_ms": ("tensors.conv3d", "tensors.mul"),
}
SPAN_CALLS = {
    "tensors.backward_calls": "tensors.backward",
    "tensors.conv3d_calls": "tensors.conv3d",
    "geophysics.average_velocity_calls": "geophysics.SeismicModel.average_velocity",
    "geophysics.build_psf_calls": "geophysics.build_psf",
}
ENTRY = {
    "latent": "inversion.optimize.latent_optimize",
    "tune": "inversion.optimize.pivotal_tune",
    "flow": "inversion.variational.variational_infer",
    "amortized": "inversion.amortized.train_inference_network",
    "dream": "inversion.mcmc.dream_zs",
}
LOGLIK_SPAN = "inversion.variational.data_loglik"


# ---------------------------------------------------------------------------
# run manifest

def _git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def manifest(workload, seed, root):
    import scipy

    threads = {v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "git_sha": _git_sha(root),
        "fluvinv": getattr(fluvinv, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "case_seed": cases.case_seed(seed),
        "tune_generator": workload.tune_generator,
        "budgets": workload.budgets(),
        "setups_per_round": workload.setups_per_round,
        "sigma": cases.SIGMA,
        "probe_reference_s": speed.REFERENCE_S,
    }


# ---------------------------------------------------------------------------
# measurement

def _case_fingerprint(case):
    parts = [case.truth.coarse_fraction, case.wells.columns,
             np.array([(w.ix, w.iy) for w in case.wells.wells], dtype=np.float64)]
    if case.seismic_model is not None:
        parts.append(case.observations.seismic.amplitudes)
    return [p.tobytes() for p in parts]


class Run:
    """Counters and checks of one benchmark run."""

    def __init__(self):
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.warnings = {"psf": 0, "clamp": 0, "other": 0}

    def check(self, name, ok, detail=""):
        self.checks.append(gate.Check(name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def correct(self):
        return all(c.ok for c in self.checks)


def timed_setups(workload, seed, n, fingerprint, run):
    """Seconds of ``n`` case set-ups, each checked to rebuild the same case,
    and the mean time of the speed probes either side of the ``n``."""
    before = speed.probe()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        case = cases.setup_case(workload, seed)
        times.append(time.perf_counter() - t0)
        run.check("setup_deterministic", _case_fingerprint(case) == fingerprint,
                  "a repeated set-up must build the same case")
    return times, 0.5 * (before + speed.probe())


def _round(case, run, reference_quality, tracer=None):
    """One round; returns {method: MethodRun} and records checks and counts.

    Every method's quality figure must be finite and identical in every
    round of a run, traced or not, since all rounds use the same case and
    seeds.
    """
    runs = cases.run_round(case, span=None if tracer is None else tracer.span)
    out = {}
    for r in runs:
        run.attempted += r.attempted
        run.failed += r.failed
        for kind, n in r.warnings.items():
            run.warnings[kind] += n
        first = reference_quality.setdefault(r.method, r.quality)
        run.check(f"{r.method}_quality", math.isfinite(r.quality) and r.quality == first,
                  f"{QUALITY[r.method]} {r.quality!r}, first round {first!r}")
        out[r.method] = r
    return out


def measure(workload, seed, seconds, trace, root):
    """Run one workload; returns (result dict, manifest, report lines).

    Warnings are recorded and counted by kind, never printed.
    """
    run = Run()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _measure(workload, seed, seconds, trace, root, run)
    cases.count_warnings(caught, run.warnings)
    result, man, report = out
    man["warnings"] = {"geophysics.psf_warnings": run.warnings["psf"],
                       "inversion.variational.clamp_warnings": run.warnings["clamp"],
                       "other": run.warnings["other"]}
    return result, man, report


def _measure(workload, seed, seconds, trace, root, run):
    man = manifest(workload, seed, root)
    tracer = tracing.Tracer() if trace else None

    # the first set-up is untimed: it pays one-time costs such as first calls
    case = cases.setup_case(workload, seed)
    fingerprint = _case_fingerprint(case)
    if tracer is not None:
        tracer.bucket = "setup"
        with tracer:
            cases.setup_case(workload, seed)
        tracer.bucket = "methods"

    gate_checks = gate.run_gate(workload, case)
    for c in gate_checks:
        run.check(c.name, c.ok, c.detail)
    man["gate"] = {c.name: c.detail for c in gate_checks}

    quality = {}
    plain, traced, setup_times, setup_probes = [], [], [], []
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        # set-ups are spread over the run, so that setup_s sees the same
        # machine speed as the rounds do
        times, probe_s = timed_setups(workload, seed, workload.setups_per_round, fingerprint,
                                      run)
        setup_times += times
        setup_probes += [probe_s] * len(times)
        plain.append(_round(case, run, quality))
        if tracer is not None:
            with tracer:
                tracer.patch(case, "loglik", LOGLIK_SPAN, "inversion.variational")
                traced.append(_round(case, run, quality, tracer))
        # stop when another round like this one would overrun the run
        now = time.perf_counter()
        if now + (now - t_round) - t0 > seconds:
            break

    man["rounds"] = len(plain) + len(traced)

    if tracer is None:
        # On a shared 2-core virtual machine, speed drifts by 10-40% in spells
        # that can outlast a run. Over sets of 5-10 runs, the quartile spread
        # of the method times' raw wall-time medians reached 0.33 of the
        # median; that of their calibrated medians stayed below 0.13.
        series = {"setup": (setup_times, setup_probes)}
        for m in cases.METHODS:
            series[m] = ([r[m].seconds for r in plain], [r[m].probe_s for r in plain])
        metrics, man["timings_s"] = {}, {}
        for m, (times, probes) in series.items():
            metrics[f"{m}_s"] = speed.calibrated(times, probes)
            man["timings_s"][m] = {"calibrated": metrics[f"{m}_s"],
                                   "wall_median": float(np.median(times)),
                                   "wall_best": min(times),
                                   "probe_median": float(np.median(probes)),
                                   "n": len(times)}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units, report = END_TO_END, []
    else:
        replay = tracing.replay_stages(case, repeats=3)
        metrics, report = layer_metrics(tracer, plain, traced, replay, run)
        units = PER_LAYER
    man["checks"] = [vars(c) for c in run.checks if not c.ok] or "all passed"
    man["checks_run"] = len(run.checks)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return result, man, report


def _per_call_ms(stat):
    return 1e3 * stat.total / stat.calls if stat.calls else 0.0


def layer_metrics(tracer, plain, traced, replay, run):
    """Per-layer metrics and the printed report from a traced run."""
    n = len(traced)
    b = "methods"
    out = {QUALITY[m]: traced[0][m].quality for m in cases.METHODS}
    out["failed_frac"] = run.failed / max(run.attempted, 1)

    t_plain = {m: min(r[m].seconds for r in plain) for m in cases.METHODS}
    t_traced = {m: min(r[m].seconds for r in traced) for m in cases.METHODS}
    out["trace.overhead_frac"] = sum(t_traced.values()) / sum(t_plain.values()) - 1.0

    for metric, (name, parent) in SPAN_MS.items():
        stat = tracer.by_name(b, name, parent)
        out[metric] = _per_call_ms(stat) if stat.calls else replay[metric]
    for metric, name in SPAN_CALLS.items():
        out[metric] = tracer.by_name(b, name).calls / n

    primitive = tracer.calls_in_module(b, "tensors", exclude=("tensors.backward",))
    evaluations = (tracer.by_name(b, "inversion.loss.DataLoss.build").calls
                   + tracer.by_name(b, LOGLIK_SPAN).calls)
    out["tensors.primitive_calls"] = primitive / max(evaluations, 1)
    out["tensors.conv3d_gflop"] = tracer.conv3d_flop[b] / 1e9 / n

    build = "geophysics.SeismicModel.build"
    n_builds = tracer.by_name(b, build).calls
    for metric, names in SEISMIC_STAGES.items():
        if n_builds:
            total = sum(tracer.by_name(b, name, build).total for name in names)
            out[metric] = 1e3 * total / n_builds
        else:
            out[metric] = replay[metric]
    for metric in ("generators.build_bwd_ms", "generators.tune_build_bwd_ms",
                   "geophysics.rock_physics_bwd_ms", "geophysics.psf_conv_bwd_ms"):
        out[metric] = replay[metric]

    out["geophysics.psf_warnings"] = sum(r[m].warnings.get("psf", 0)
                                         for r in traced for m in r) / n
    out["inversion.variational.clamp_warnings"] = sum(r["flow"].warnings.get("clamp", 0)
                                                      for r in traced) / n
    out["inversion.mcmc.proposals"] = traced[0]["dream"].extra["proposals"]
    out["inversion.mcmc.accept_rate"] = traced[0]["dream"].extra["accept_rate"]
    out["survey.place_wells_ms"] = _per_call_ms(tracer.by_name("setup", "survey.place_wells"))
    out["survey.extract_ms"] = _per_call_ms(tracer.by_name("setup", "survey.extract_well_data"))

    return out, report_lines(tracer, n, t_plain, t_traced, replay)


def report_lines(tracer, n, t_plain, t_traced, replay):
    """Self time per module, tracing overhead and span coverage per method."""
    lines = ["self time per module, ms per round (traced rounds):"]
    selves = tracer.self_by_module("methods")
    total = sum(selves.values())
    for module, s in sorted(selves.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:24s} {1e3 * s / n:12.2f}  {100 * s / total:5.1f}%")
    lines.append("top spans by self time, ms per round:")
    per_name = {}
    for (b, _, name), st in tracer.stats.items():
        if b == "methods":
            per_name[name] = per_name.get(name, 0.0) + st.self_time
    for name, s in sorted(per_name.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"  {name:48s} {1e3 * s / n:12.2f}")
    lines.append("per method: best untraced s, best traced s, overhead, span coverage:")
    for m in cases.METHODS:
        bench = tracer.by_name("methods", f"bench.{m}")
        entry = tracer.by_name("methods", ENTRY[m], f"bench.{m}")
        covered = bench.total - bench.self_time - entry.self_time
        lines.append(f"  {m:10s} {t_plain[m]:9.4f} {t_traced[m]:9.4f} "
                     f"{t_traced[m] / t_plain[m] - 1:+7.1%} {covered / bench.total:7.1%}")
    lines.append("isolated stage replays, ms per call (forward / backward):")
    for key in sorted(k for k in replay if not k.endswith("_bwd_ms")):
        bwd = replay.get(key[:-3] + "_bwd_ms")
        lines.append(f"  {key[:-3]:32s} {replay[key]:10.3f}"
                     + (f" / {bwd:10.3f}" if bwd is not None else ""))
    return lines
