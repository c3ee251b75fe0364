"""Every module under ``src/`` uses each name it imports, every helper
under ``src/`` is read somewhere, and the one-helper jobs stay in one helper.

The repository has no linter, so this parses each module with ``ast`` and
compares the names its imports bind with the names its code reads, and the
functions, classes and private methods it defines with the names all of
``src/`` reads or imports.
"""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def read_names(root: ast.AST) -> Counter:
    """Names and attributes read under ``root``, and names imported from a
    module (how the package exports its API)."""
    names = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, and private methods, whose name
    nothing in ``sources`` reads or imports outside their own definition."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    defs = []
    for label, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                defs.append((f"{label}:{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{label}:{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, DEFS) and m.name.startswith("_")
                         and not m.name.endswith("__")]
    reads = sum(map(read_names, trees.values()), Counter())
    return sorted(where for where, node in defs
                  if reads[node.name] == read_names(node)[node.name])


def test_dead_helpers_finds_unread_definitions():
    sources = {
        "a": ("def _used():\n    return 1\n\ndef _dead(n):\n"
              "    return _dead(n - 1)\n\ndef api():\n    return 2\n\n"
              "def leftover():\n    return 3\n\nclass _Box:\n"
              "    def _peek(self):\n        return self._get()\n"
              "    def _get(self):\n        return 0\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "from a import _used, _Box, api\nprint(_used(), _Box)\n",
    }
    assert dead_helpers(sources) == ["a:_Box._peek", "a:_dead", "a:leftover"]


def test_every_helper_is_read():
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    assert dead_helpers(sources) == []


def readers(sources: dict[str, str], name: str) -> set[str]:
    """``module:definition`` of each top-level function or class of
    ``sources`` that reads ``name`` as a name or an attribute, and
    ``module:`` for a read outside them.  Assigning ``name`` is no read."""
    found = set()
    for label, source in sources.items():
        for top in ast.parse(source).body:
            if any((isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name)
                   and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(top)):
                found.add(f"{label}:{top.name if isinstance(top, DEFS) else ''}")
    return found


def test_readers_finds_each_scope():
    sources = {"a": ("import numpy as np\nfrom x import sort\n"
                     "def f():\n    return np.sort\n"
                     "def g():\n    def h():\n        return sort\n    return h\n"
                     "k = sort\n"),
               "b": "sort = 0\n"}
    assert readers(sources, "sort") == {"a:f", "a:g", "a:"}


@pytest.mark.parametrize("name, reader", [
    ("lexsort", "diffeolab/zassenhaus/pairs.py:sorted_runs"),
    ("ThreadPoolExecutor", "diffeolab/action.py:map_row_blocks"),
    ("_fill_level", "diffeolab/action.py:sphere_orbits"),
    ("leaf_buckets", "diffeolab/generators.py:_table_leaves"),
    ("_PARALLEL_MIN", "diffeolab/action.py:map_row_blocks"),
    ("deriv", "diffeolab/generators.py:letter_step"),
])
def test_one_helper_reads_the_primitive(name, reader):
    # One bucket sort for flatten and collision, one thread-chunking helper,
    # one sphere propagator for transport, collision and the probe, one
    # bucket-index lookup for the array spline inverse, one block size,
    # read where arrays are cut, and one letter derivative rule.
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    assert readers(sources, name) == {reader}


def test_only_action_spells_the_probe_kinds():
    # One module knows the probed quantities; the others read PROBE_KINDS.
    spelled = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Constant)
               and node.value in ("displacement", "deriv_gap")}
    assert spelled == {"diffeolab/action.py"}
