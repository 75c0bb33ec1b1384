"""Packaging metadata matches the code: entry points resolve, dependencies are
used and every name in a module's ``__all__`` exists."""

import importlib
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_console_scripts_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} target {target!r} is not callable"


def test_runtime_dependencies_are_imported():
    source = "\n".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for requirement in _project()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).replace("-", "_")
        assert re.search(rf"^\s*(import|from)\s+{name}\b", source, re.MULTILINE), \
            f"runtime dependency {name!r} is not imported under src/"


def test_every_exported_name_resolves():
    package = ROOT / "src" / "fluvinv"
    stale = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert not stale, f"names in __all__ that do not resolve: {stale}"
