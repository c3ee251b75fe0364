"""Every module under ``src/`` uses each name it imports.

The repository has no linter, so this parses each module with ``ast`` and
compares the names its imports bind with the names its code reads.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_dead_name():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import os.path\nfrom math import inf, pi\n\ndef f():\n"
              "    import sys\n    return os.path.sep, pi\n")
    assert unused_imports(source) == ["inf", "np", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
