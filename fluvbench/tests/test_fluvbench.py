"""The benchmark's own tests, at tiny budgets.

Run from the repository root: ``python3 -m pytest fluvbench/tests -q``.
"""

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fluvbench import cases, gate, harness, speed, tracing  # noqa: E402

TINY_BUDGETS = dict(
    latent=dict(n_restarts=2, iterations=2, lr=0.1),
    tune=dict(steps=1, anchors_per_step=1, pivots_per_step=1),
    flow=dict(n_layers=2, hidden=(4,), steps=2, batch=2),
    amortized=dict(hidden=(4,), steps=2, batch=2),
    # Gelman-Rubin needs four retained samples: the second half of 8
    dream=dict(n_chains=3, burn_in=0, generations=8, archive_size0=8, de_pairs_max=1),
)


def tiny(name):
    """The named workload at tiny budgets; full-seismic shrinks to the desk grid."""
    wl = replace(cases.WORKLOADS[name], setups_per_round=1, posterior_draws=2, **TINY_BUDGETS)
    if wl.extents != (32, 32, 8):
        wl = replace(wl, extents=(32, 32, 8), policy=cases.DESK_POLICY)
    return wl


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    gate.write_reference([tiny(n) for n in cases.WORKLOADS], path)
    return path


@pytest.fixture
def tiny_gate(monkeypatch, reference):
    monkeypatch.setattr(gate, "run_gate",
                        functools.partial(gate.run_gate, reference_path=reference))


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_unit(name, trace, tiny_gate):
    result, manifest, _ = harness.measure(tiny(name), seed=3, seconds=0.0, trace=trace,
                                          root=ROOT)
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], manifest["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_calibrated_time_cancels_machine_speed():
    # the second call ran on a machine twice as slow: its probe took twice as long
    assert speed.calibrated([0.2, 0.4, 0.3], [0.01, 0.02, 0.01]) == \
        pytest.approx(20 * speed.REFERENCE_S)
    assert speed.probe() > 0


def test_benchmark_json_names_the_harness_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_traced_and_untraced_rounds_give_identical_quality():
    case = cases.setup_case(tiny("desk-wells"), 5)
    plain = {r.method: r.quality for r in cases.run_round(case)}
    tracer = tracing.Tracer()
    with tracer:
        traced = {r.method: r.quality for r in cases.run_round(case, span=tracer.span)}
    assert plain == traced
    assert tracer.by_name("methods", "tensors.conv3d").calls > 0


def _attributes():
    """Every attribute the tracer replaces, looked up the way callers see it."""
    seen = {}
    for owner, attr, _, _ in tracing.targets():
        if isinstance(owner, type):
            seen[(owner.__qualname__, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith(("fluvinv", "fluvbench")):
                for key, value in vars(mod).items():
                    if value is original:
                        seen[(mod.__name__, key)] = value
    return seen


def test_wrapped_attributes_are_restored(tiny_gate):
    before = _attributes()
    tracer = tracing.Tracer().install()
    try:
        during = {k: getattr(v, "__fluvbench_original__", None) for k, v in _attributes().items()}
    finally:
        tracer.restore()
    assert during == before
    harness.measure(tiny("desk-wells"), seed=1, seconds=0.0, trace=True, root=ROOT)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_perturbed_observation_trips_the_gate(monkeypatch, tiny_gate):
    setup = cases.setup_case

    def perturbed(workload, seed):
        case = setup(workload, seed)
        case.wells.columns[0, 0] += 1e-12
        return case

    monkeypatch.setattr(cases, "setup_case", perturbed)
    result, manifest, _ = harness.measure(tiny("desk-wells"), seed=2, seconds=0.0,
                                          trace=False, root=ROOT)
    assert not result["correct"] and result["failed"] >= 1
    assert [c["name"] for c in manifest["checks"]] == ["truth_residual_zero"]


def test_perturbed_gradient_trips_the_gate(monkeypatch, tiny_gate):
    backward = cases.tc.GraphTape.backward

    def skewed(self, output, seed=None):
        grads = backward(self, output, seed)
        grads._grads = [None if g is None else 1.001 * g for g in grads._grads]
        return grads

    monkeypatch.setattr(cases.tc.GraphTape, "backward", skewed)
    case = cases.setup_case(tiny("desk-wells"), 2)
    checks = {c.name: c.ok for c in gate.run_gate(case.workload, case)}
    assert checks == {"truth_residual_zero": True, "gradient_fd": False,
                      "reference_default_seed": False}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fluvbench", tmp_path / "fluvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "fluvbench/run.py", "--workload", "desk-wells",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
