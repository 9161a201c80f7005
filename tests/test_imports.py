"""Every name a module of ``src/bmx`` imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "bmx")
                 .glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import; ``from
    __future__`` imports bind nothing that code uses."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """The names the code reads, with those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for hint in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used |= _used(ast.parse(hint.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"
