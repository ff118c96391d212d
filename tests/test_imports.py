"""Every name a tropfan module imports is referenced somewhere in that module,
and every module imports only the standard library and tropfan itself.

A stdlib-only stand-in for an unused-import linter: each module under
``src/tropfan`` (the package ``__init__`` re-exports on purpose and is
skipped) is parsed with ``ast``; ``from __future__`` imports are exempt.
The runtime must stay exact and deterministic, so ``random`` is refused even
though it is in the standard library: no verdict may rest on a sample.
"""

import ast
import sys
from pathlib import Path

import pytest

import tropfan

ALL_MODULES = sorted(Path(tropfan.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
