"""The test oracles stay independent of the code they check."""

from __future__ import annotations

import ast
from pathlib import Path


def test_conftest_imports_only_matroid_from_bmx():
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    from_bmx = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "bmx" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "bmx":
            from_bmx += [(node.module, a.name) for a in node.names]
    assert from_bmx == [("bmx.matroid", "Matroid")]
