"""The benchmark's traced callables exist where its tracer patches them.

``fluvbench.tracing.Tracer`` replaces ``cls.__dict__[attr]`` for a class
target, so a method that moves to a base class or a module helper breaks a
traced run with a ``KeyError``. This guard fails first.
"""

import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from fluvbench.tracing import targets

    entries = targets()
    assert entries
    missing = []
    for owner, attr, name, _ in entries:
        if inspect.isclass(owner):
            found = attr in owner.__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{name} ({owner.__name__}.{attr})")
    assert not missing, f"trace targets not found: {missing}"
