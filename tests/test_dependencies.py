"""numpy is `wgm`'s only runtime dependency: every import in `src/wgm` names a
standard-library module, numpy, or `wgm` itself. scipy or networkx may be
installed beside it, so an import of one would pass every other test."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wgm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wgm"}


def imported_modules(tree):
    """(line, top-level module) of each import in `tree`; a relative import
    (`from . import x`, `from .graph import y`) is `wgm`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "wgm" if node.level else node.module.partition(".")[0]


def test_scan_finds_each_import():
    code = "import os.path, numpy as np\nfrom scipy import sparse\nfrom .graph import x\nimport networkx.algorithms\n"
    code += "def f():\n    import pandas\nfrom . import ingest\n"
    expected = [(1, "numpy"), (1, "os"), (2, "scipy"), (3, "wgm"), (4, "networkx"), (6, "pandas"), (7, "wgm")]
    assert sorted(imported_modules(ast.parse(code))) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_stdlib_numpy_and_wgm(path):
    imports = imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    foreign = sorted((line, name) for line, name in imports if name not in ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}: numpy is the only runtime dependency"
