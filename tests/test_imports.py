"""Module boundaries inside the ``tupack`` package."""

from __future__ import annotations

import ast
from pathlib import Path

import tupack

SRC = Path(tupack.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_another():
    """A ``_``-prefixed name belongs to its module: another module that needs
    it needs a public name."""
    reach_ins = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tupack")):
                reach_ins += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert reach_ins == []
