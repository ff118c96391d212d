"""Every name a tropfan module, a test module or a script imports is
referenced somewhere in that module, every module-level private name and every method of a private class is
referenced somewhere in the package, every module imports only the standard
library and tropfan itself, and the LP entry points are reached only through
the bindings the tracer rebinds, and no module but ``geometry`` imports a
private ``geometry`` name.

A stdlib-only stand-in for an unused-import linter: each module under
``src/tropfan`` (the package ``__init__`` re-exports on purpose and is
skipped), ``tests`` and ``scripts`` is parsed with ``ast``; ``from
__future__`` imports are exempt.
The runtime must stay exact and deterministic, so ``random`` is refused even
though it is in the standard library: no verdict may rest on a sample.

``perfbench/tracer.py`` counts LPs by rebinding module globals such as
``fan.max_slack`` and ``dual.describe_cone``.  A module that reached an LP
entry point any other way, by an alias, an absolute import or an attribute
of ``geometry``, would run LPs the tracer cannot see, so every module but
``geometry`` takes each of them only as ``from .geometry import <name>``.
The checks behind an LP's answer, its witness substitution and its Farkas
certificate, run inside ``geometry.max_slack``; a module that imported a
private ``geometry`` helper such as ``_check_certificate`` would be
checking answers a second way, beside the solver.
"""

import ast
import sys
from pathlib import Path

import pytest

import tropfan

ALL_MODULES = sorted(Path(tropfan.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
TESTS = Path(__file__).resolve().parent
IMPORTING = MODULES + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("from a import b, c\nimport d.e\nc()\n") == ["b (line 1)", "d (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """"module: name" for each module-level private name (a ``_name``
    function, class or assignment) that no top-level statement of any of the
    modules references, as a name or an attribute, besides the one defining
    it; and "module: _Class.method" for each method of a private class,
    dunders aside, that no attribute of its name references outside the
    method's own body.  A plain name, such as a local variable, never
    references a method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = []  # (module, private names defined, names referenced)
    methods = []  # (module, "_Class.method", the method's def)
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                names = []
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            refs = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(stmt)}
            statements.append((module, private, refs))
            if isinstance(stmt, ast.ClassDef) and private:
                methods += [
                    (module, f"{stmt.name}.{node.name}", node)
                    for node in stmt.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    attributes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    dead = [
        f"{module}: {name}"
        for i, (module, private, _) in enumerate(statements)
        for name in private
        if not any(name in refs for j, (_, _, refs) in enumerate(statements) if j != i)
    ]
    for module, qualname, method in methods:
        own = {id(node) for node in ast.walk(method)}
        if not any(node.attr == method.name and id(node) not in own for node in attributes):
            dead.append(f"{module}: {qualname}")
    return sorted(dead)


def test_checker_flags_a_dead_helper():
    source = (
        "_CAP = 3\n"
        "def _used():\n    return _CAP\n"
        "def _recursive():\n    return _recursive()\n"
        "class _Alone:\n    def copy(self):\n        return _Alone()\n"
        "def public():\n    return _used()\n"
        "_pair, public_too = 1, 2\n"
        "_TABLE: dict = {}\n"
        "def __getattr__(name):\n    return name\n"
        "class _Kept:\n"
        "    def entry(self):\n        return self.entry()\n"
        "    def called(self):\n        return 1\n"
        "    def __len__(self):\n        return 0\n"
        "class Public:\n    def unread(self):\n        return 0\n"
        "def public_kept():\n    entry = _Kept().called()\n    return entry\n"
    )
    assert dead_private_names({"a.py": source}) == [
        "a.py: _Alone", "a.py: _Alone.copy", "a.py: _Kept.entry", "a.py: _TABLE", "a.py: _pair", "a.py: _recursive"
    ]
    other = "from .a import _recursive\nimport a\n_recursive()\na._TABLE\nlambda kept: kept.entry\n"
    assert dead_private_names({"a.py": source, "b.py": other}) == ["a.py: _Alone", "a.py: _Alone.copy", "a.py: _pair"]


def test_no_dead_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in ALL_MODULES}
    assert dead_private_names(sources) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported that are neither stdlib (``random`` aside) nor tropfan."""
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module.split(".")[0], node.lineno))
    allowed = (sys.stdlib_module_names - {"random"}) | {"tropfan", "__future__"}
    return [f"{name} (line {line})" for name, line in names if name not in allowed]


def test_checker_flags_a_foreign_import():
    source = "import os.path\nfrom . import geometry\nimport random\nfrom numpy import array\nimport tropfan.fan\n"
    assert foreign_imports(source) == ["random (line 3)", "numpy (line 4)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_stdlib_and_tropfan_imports(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


LP_ENTRY_POINTS = {"max_slack", "lp_feasible", "relint_point", "describe_cone", "exact_rank"}


def untraced_lp_bindings(source: str) -> list[str]:
    """Imports of an LP entry point other than ``from .geometry import <name>``,
    and every ``geometry.<name>`` attribute, with their lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            traced = node.level == 1 and node.module == "geometry"
            for alias in node.names:
                star = alias.name == "*" and (node.module or "").endswith("geometry")
                entry = alias.name in LP_ENTRY_POINTS and not (traced and alias.asname is None)
                if star or entry:
                    out.append((node.lineno, f"import {alias.name} (line {node.lineno})"))
        elif isinstance(node, ast.Attribute) and node.attr in LP_ENTRY_POINTS:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "geometry":
                out.append((node.lineno, f"geometry.{node.attr} (line {node.lineno})"))
    return [message for _, message in sorted(out)]


def test_checker_flags_an_untraced_lp_binding():
    source = (
        "from .geometry import max_slack, exact_rank as rank\n"
        "from tropfan.geometry import lp_feasible\n"
        "from . import geometry\n"
        "geometry.relint_point(2, ())\n"
        "tropfan.geometry.describe_cone(2, ())\n"
        "from .geometry import *\n"
        "from .rationals import zeros\n"
        "geometry.PivotLimitError\n"
    )
    assert untraced_lp_bindings(source) == [
        "import exact_rank (line 1)",
        "import lp_feasible (line 2)",
        "geometry.relint_point (line 4)",
        "geometry.describe_cone (line 5)",
        "import * (line 6)",
    ]


@pytest.mark.parametrize("path", [p for p in ALL_MODULES if p.name != "geometry.py"], ids=lambda p: p.name)
def test_lp_entry_points_go_through_traced_bindings(path):
    assert untraced_lp_bindings(path.read_text(encoding="utf-8")) == []


def private_geometry_names(source: str) -> list[str]:
    """Private names taken from ``geometry`` by an import or as an attribute
    of ``geometry``, with their lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "geometry":
            names = [alias.name for alias in node.names if alias.name[0] == "_"]
            out += [(node.lineno, f"{name} (line {node.lineno})") for name in names]
        elif isinstance(node, ast.Attribute) and node.attr[0] == "_":
            if getattr(node.value, "attr", getattr(node.value, "id", None)) == "geometry":
                out.append((node.lineno, f"geometry.{node.attr} (line {node.lineno})"))
    return [message for _, message in sorted(out)]


def test_checker_flags_a_private_geometry_name():
    source = (
        "from .geometry import _check_certificate, lp_feasible\n"
        "from tropfan.geometry import _Simplex as S\n"
        "from . import geometry\n"
        "geometry._width(2, 3)\n"
        "from .rationals import _private\n"
        "geometry.max_slack.__name__\n"
    )
    assert private_geometry_names(source) == [
        "_check_certificate (line 1)",
        "_Simplex (line 2)",
        "geometry._width (line 4)",
    ]


@pytest.mark.parametrize("path", [p for p in ALL_MODULES if p.name != "geometry.py"], ids=lambda p: p.name)
def test_no_private_geometry_imports(path):
    assert private_geometry_names(path.read_text(encoding="utf-8")) == []


def test_package_attributes_are_the_submodules():
    """No root re-export shadows a submodule: ``tropfan.classify`` is the
    module, so an attribute set on it reaches the module's code."""
    import importlib

    assert tropfan.classify is importlib.import_module("tropfan.classify")
    for path in MODULES:
        module = importlib.import_module(f"tropfan.{path.stem}")
        assert getattr(tropfan, path.stem) is module, path.stem
