"""Packaging metadata matches the code: entry points resolve, dependencies are
used and every name in a module's ``__all__`` exists. AST checks hold rules
of the code under ``src/``; those that name where code may sit (random
draws, tape writes and the ``tc.custom`` records of the fast-path table in
``helpers``) share one walker, ``_scoped``."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

from helpers import FAST_PATHS

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


def _scoped(tree, match):
    """(line, enclosing scope, what) of every node for which ``match(node)``
    gives a ``what``; the scope is the dotted path of the enclosing classes
    and functions, None at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        what = match(node)
        if what:
            found.append((node.lineno, scope, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def _numpy_random_uses(tree):
    """(line, enclosing scope) of every reference to ``numpy.random``:
    ``np.random.<anything>`` and imports from it."""
    def match(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.random") for a in node.names)
        return isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.random")
            or node.module == "numpy" and any(a.name == "random" for a in node.names))

    return [(line, scope) for line, scope, _ in _scoped(tree, match)]


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
    ``_records.append``, ``extend`` or ``insert``."""
    def match(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return None
        if node.func.attr == "_new_node":
            return "_new_node"
        if (node.func.attr in ("append", "extend", "insert")
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_records"):
            return "_records"
        return None

    return _scoped(tree, match)


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


def _custom_calls(tree):
    """(line, enclosing scope) of every ``tc.custom(...)`` call."""
    def match(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "custom" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tc")

    return [(line, scope) for line, scope, _ in _scoped(tree, match)]


def test_every_custom_record_is_in_the_fast_path_table():
    """Every ``tc.custom`` call under src/ sits in a function that
    ``helpers.FAST_PATHS`` names, so it is tested against its reference,
    and every name of the table is a function under src/."""
    offenders, defined = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        offenders += [f"{rel}:{line} in {scope}" for line, scope in _custom_calls(tree)
                      if scope not in FAST_PATHS]
        defined |= {scope for _, scope, _ in _scoped(tree, lambda n: isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef)))}
    assert not offenders, f"tc.custom records missing from helpers.FAST_PATHS: {offenders}"
    assert set(FAST_PATHS) <= defined, f"stale sites: {set(FAST_PATHS) - defined}"


def test_custom_call_finder_sees_every_form():
    source = """
class Flow:
    def transform(self, u):
        return tc.custom(lambda *_: (u, None), u)
def kernel(x):
    def inner(v):
        return tc.custom(f, v)
    return custom(f, x), tc.customs(x), other.custom(f, x)
tc.custom(f, x)
"""
    assert _custom_calls(ast.parse(source)) == [(4, "Flow.transform"), (7, "kernel.inner"),
                                                (9, None)]


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
