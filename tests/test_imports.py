"""Every name a growthlab module imports is used in that module, and
every name the package exports exists.

``__init__`` is skipped by the unused-import check: its imports are the
package's re-exports, which the export check covers instead.
"""

import ast
from pathlib import Path

import pytest

import growthlab

SRC = Path(__file__).resolve().parents[1] / "src" / "growthlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nfrom dataclasses import dataclass, field\n"
              "def f(x: float) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["dataclass (line 3)", "field (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_every_export_exists():
    assert [name for name in growthlab.__all__ if not hasattr(growthlab, name)] == []
