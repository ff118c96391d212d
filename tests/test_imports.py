"""Every name a tropfan module imports is referenced somewhere in that module.

A stdlib-only stand-in for an unused-import linter: each module under
``src/tropfan`` (the package ``__init__`` re-exports on purpose and is
skipped) is parsed with ``ast``; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import tropfan

MODULES = sorted(
    p for p in Path(tropfan.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
