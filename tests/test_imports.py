"""Every name a module of ``src/bmx`` imports is used in that module, and
every name one defines at module level is read somewhere."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "bmx").glob("*.py")
                 if p.name != "__init__.py")
# the code that may read a name bmx defines
READERS = [p for d in ("src/bmx", "tests", "perfbench")
           for p in sorted((ROOT / d).glob("*.py"))]
# a string naming an attribute, as ``monkeypatch.setattr`` takes it
_NAME_STRING = re.compile(r"[A-Za-z_][\w.]*")


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


def _defined(tree: ast.Module) -> dict[str, int]:
    """Each function, class and constant the module binds at top level,
    with its line; dunder names serve Python, not code."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    """The names the code reads: loaded names and attributes, names
    imported from a module, and strings that are a (dotted) name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _NAME_STRING.fullmatch(node.value):
            read |= set(node.value.split("."))
    return read


def test_no_unread_definitions():
    read = set().union(*(_read(ast.parse(p.read_text())) for p in READERS))
    unread = {f"{path.name}:{line}": name for path in SOURCES
              for name, line in _defined(ast.parse(path.read_text())).items()
              if name not in read}
    assert not unread, f"defined but read nowhere: {unread}"
