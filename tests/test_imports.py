"""Every imported name in src/ and tests/ is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for tree in ("src", "tests") for p in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never loads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            loaded |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in loaded]


def test_the_walk_finds_the_modules():
    assert len(MODULES) > 20 and {p.name for p in MODULES} >= {"model.py", "test_imports.py"}


def test_the_check_flags_an_unused_name_and_passes_a_used_one():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a.b import c, d\n__all__ = ['d']\nprint(os)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
