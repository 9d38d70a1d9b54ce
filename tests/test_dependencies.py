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


def unused_imports(tree):
    """(line, name) of each name an import in `tree` binds that the module
    never loads and its `__all__` does not list; `from __future__` binds none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0]: node.lineno for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name: node.lineno for alias in node.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in loaded | set(exported(tree)))


def exported(tree):
    """The names the module-level `__all__` in `tree` lists, in order; none
    without one."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            names = ast.literal_eval(node.value)
    return names


def test_scan_finds_each_unused_import():
    code = "from __future__ import annotations\nimport itertools, os.path, numpy as np\nfrom .graph import x, y as z\n"
    code += "__all__ = ['x']\ndef f(a: np.ndarray):\n    import math\n    os = 1\n    return z\n"
    assert unused_imports(ast.parse(code)) == [(2, "itertools"), (2, "os"), (6, "math")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_loads_every_name_it_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports {unused} and never uses them"


def public_definitions(tree):
    """Names of the module-level functions and classes in `tree` that do
    not start with an underscore."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def test_scan_finds_each_public_definition():
    code = "__all__ = ['f', 'gone']\ndef f():\n    def g():\n        pass\nclass C:\n    def m(self):\n        pass\n"
    code += "def _h():\n    pass\nX = 1\n"
    assert exported(ast.parse(code)) == ["f", "gone"]
    assert public_definitions(ast.parse(code)) == ["f", "C"]


@pytest.mark.parametrize("module", ["degrees", "edits", "graph", "ingest", "structure", "synth"])
def test_all_lists_each_public_function_and_class_once(module):
    """Each name has one import path, its module, so `__all__` is the one
    list of a module's public names: it names no missing function or class,
    leaves none out and names none twice."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert sorted(exported(tree)) == sorted(public_definitions(tree))


def orphaned_private_names(trees):
    """(file, line, name) of each module-level function, class or assignment
    whose name starts with one underscore and that no tree in `trees` (a
    file name -> module mapping) loads as a name, an attribute or an
    imported name."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded |= {alias.name for alias in node.names}
    orphans = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            private = (name for name in names if name.startswith("_") and not name.startswith("__"))
            orphans += [(file, node.lineno, name) for name in private if name not in loaded]
    return orphans


def test_scan_finds_each_orphaned_private_name():
    a = "_A, (_B, c) = 1, (2, 3)\n_t: int = 0\n__all__ = []\ndef _f():\n    _local = _A\nclass _C:\n    pass\n"
    a += "def _g():\n    pass\n_h = 1\n"
    b = "from .a import _f\nimport a\na._C\n"
    expected = [("a.py", 1, "_B"), ("a.py", 2, "_t"), ("a.py", 8, "_g"), ("a.py", 10, "_h")]
    assert orphaned_private_names({"a.py": ast.parse(a), "b.py": ast.parse(b)}) == expected


def test_src_loads_every_private_name_it_defines():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    orphans = orphaned_private_names(trees)
    assert not orphans, f"{orphans} are defined in src/wgm and never used there"
