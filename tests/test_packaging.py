"""Packaging metadata matches the code: entry points resolve, dependencies are
used and every name in a module's ``__all__`` exists."""

import ast
import importlib
import re
import sys
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


def _numpy_random_uses(tree):
    """(line, enclosing function) of every reference to ``numpy.random``:
    ``np.random.<anything>`` and imports from it."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            func = node.name if func is None else f"{func}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            uses.append((node.lineno, func))
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.random") for a in node.names):
            uses.append((node.lineno, func))
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            uses.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_only_keyed_rng_touches_numpy_random():
    """Every random draw under src/ comes from ``generators.keyed_rng`` or its
    batch form ``keyed_rngs``: no other code builds a SeedSequence, PCG64 or
    default_rng or draws from numpy's global stream."""
    streams = {"keyed_rng", "_StateWords", "_KeyedStreams.__getitem__"}
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for line, func in _numpy_random_uses(ast.parse(path.read_text())):
            if rel != "src/fluvinv/generators.py" or func not in streams:
                offenders.append(f"{rel}:{line} in {func}")
    assert not offenders, f"numpy.random used outside keyed_rng: {offenders}"


def test_numpy_random_finder_sees_every_form():
    source = """
import numpy.random
from numpy import random
from numpy.random import default_rng
def f(seed):
    return np.random.Generator(np.random.PCG64(seed)), numpy.random.uniform()
"""
    assert [line for line, _ in _numpy_random_uses(ast.parse(source))] == [2, 3, 4, 6, 6, 6]


def _discarded_depo_builds(tree):
    """Lines of every ``x, _ = <generator>.build(...)`` that throws the
    depo channel away without passing ``depo=False``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and len(node.targets[0].elts) == 2
                and isinstance(node.targets[0].elts[1], ast.Name)
                and node.targets[0].elts[1].id == "_"
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "build"):
            continue
        if not any(k.arg == "depo" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in node.value.keywords):
            lines.append(node.lineno)
    return sorted(lines)


def test_coarse_only_builds_skip_depo():
    """A build under src/ whose depo channel is discarded asks for none."""
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        offenders += [f"{rel}:{line}"
                      for line in _discarded_depo_builds(ast.parse(path.read_text()))]
    assert not offenders, f"builds that compute a discarded depo channel: {offenders}"


def test_discarded_depo_finder_sees_every_form():
    source = """
coarse, _ = gen.build(tape, z)
coarse, _ = gen.build(tape, z, cells=c, depo=False)
coarse, _ = self.generator.build(tape, z, depo=True)
coarse, depo = gen.build(tape, z)
out, _ = model.build(tape, z, depo=flag)
a, b, _ = f.build(tape)
"""
    assert _discarded_depo_builds(ast.parse(source)) == [2, 4, 6]


# who may make a node or append a record: the tape's one record path
_TAPE_WRITERS = {"_new_node": {"GraphTape.input", "GraphTape.constant", "GraphTape._op"},
                 "_records": {"GraphTape._op"}}


def _tape_writes(tree):
    """(line, enclosing scope, what) of every call of ``_new_node`` and every
    ``_records.append``, ``extend`` or ``insert``. The scope is the dotted
    path of the enclosing classes and functions."""
    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "_new_node":
                writes.append((node.lineno, scope, "_new_node"))
            elif (node.func.attr in ("append", "extend", "insert")
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "_records"):
                writes.append((node.lineno, scope, "_records"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return writes


def test_every_record_enters_through_graph_tape_op():
    """Under src/, only ``GraphTape.input``, ``constant`` and ``_op`` make
    nodes, and only ``_op`` appends a record."""
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for line, scope, what in _tape_writes(ast.parse(path.read_text())):
            if rel != "src/fluvinv/tensors.py" or scope not in _TAPE_WRITERS[what]:
                offenders.append(f"{rel}:{line} {what} in {scope}")
    assert not offenders, f"tape writes outside the record path: {offenders}"


def test_tape_write_finder_sees_every_form():
    source = """
class GraphTape:
    def _op(self, value):
        out = self._new_node(value, True)
        self._records.append(out)
def crop(x, tape):
    def backward(g):
        return tape._new_node(g, False)
    tape._records.extend([])
    tape._records.insert(0, None)
    return len(tape._records), tape._records.index(None)
"""
    assert _tape_writes(ast.parse(source)) == [
        (4, "GraphTape._op", "_new_node"), (5, "GraphTape._op", "_records"),
        (8, "crop.backward", "_new_node"), (9, "crop", "_records"), (10, "crop", "_records")]


def _imported_modules(tree):
    """(line, top-level module) of every import; a relative import is the
    package's own, ``fluvinv``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            name = "fluvinv" if node.level else node.module.partition(".")[0]
            found.append((node.lineno, name))
    return sorted(found)


def test_src_imports_only_the_standard_library_and_numpy():
    """The package runs on numpy alone: scipy and the other test extras
    stay out of src/."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "fluvinv"}
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        offenders += [f"{rel}:{line} {name}"
                      for line, name in _imported_modules(ast.parse(path.read_text()))
                      if name not in allowed]
    assert not offenders, f"imports outside the standard library and numpy: {offenders}"


def test_import_finder_sees_every_form():
    source = """
import numpy as np, scipy.ndimage
from scipy import ndimage
from . import tensors
from .inversion.loss import DataLoss
def f():
    import torch
"""
    assert _imported_modules(ast.parse(source)) == [
        (2, "numpy"), (2, "scipy"), (3, "scipy"), (4, "fluvinv"), (5, "fluvinv"), (7, "torch")]
