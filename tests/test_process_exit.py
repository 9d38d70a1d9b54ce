"""One way out of a `wgm` process: `wgm.cli.run` ends it with `os._exit`
once its output is flushed. Nothing else in `src/wgm` ends the process, so
a program that calls `wgm` as a library keeps running after each call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgm"
# (module, name) of each function that ends the process; None is a builtin
EXITS = {("os", "_exit"), ("os", "abort"), ("sys", "exit"), (None, "exit"), (None, "quit")}


def process_exits(tree, scope=""):
    """(scope, line, name) of each way `tree` can end the process: a use of
    `os._exit`, `os.abort` or `sys.exit`, called or not, importing one of
    them by name, calling `exit` or `quit`, and raising `SystemExit`. The
    scope is the dotted name of the enclosing functions and classes."""
    names = []
    if isinstance(tree, ast.Attribute) and isinstance(tree.value, ast.Name) and (tree.value.id, tree.attr) in EXITS:
        names = [f"{tree.value.id}.{tree.attr}"]
    elif isinstance(tree, ast.ImportFrom):
        names = [f"{tree.module}.{alias.name}" for alias in tree.names if (tree.module, alias.name) in EXITS]
    elif isinstance(tree, ast.Call) and isinstance(tree.func, ast.Name) and (None, tree.func.id) in EXITS:
        names = [tree.func.id]
    elif isinstance(tree, ast.Raise) and tree.exc is not None:
        exc = tree.exc.func if isinstance(tree.exc, ast.Call) else tree.exc
        names = ["SystemExit"] if isinstance(exc, ast.Name) and exc.id == "SystemExit" else []
    yield from ((scope, tree.lineno, name) for name in names)
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{tree.name}" if scope else tree.name
    for child in ast.iter_child_nodes(tree):
        yield from process_exits(child, scope)


def test_scan_finds_each_exit():
    code = (
        "import os, sys\n"
        "def run():\n    os._exit(0)\n"
        "class C:\n    def f(self):\n        sys.exit(1)\n"
        "end = os.abort\n"
        "from os import _exit, path\n"
        "def g():\n    raise SystemExit(2)\n"
        "def h():\n    raise SystemExit\n"
        "exit(3)\nquit()\n"
        "os.exit_code = sys.exitfunc = os.path.exists(x)\n"
        "except_ = SystemExit\n"
    )
    assert list(process_exits(ast.parse(code))) == [
        ("run", 3, "os._exit"),
        ("C.f", 6, "sys.exit"),
        ("", 7, "os.abort"),
        ("", 8, "os._exit"),
        ("g", 10, "SystemExit"),
        ("h", 12, "SystemExit"),
        ("", 13, "exit"),
        ("", 14, "quit"),
    ]


def test_src_exits_once_in_cli_run():
    exits = [
        (path.stem, scope, name)
        for path in sorted(SRC.glob("*.py"))
        for scope, _, name in process_exits(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert exits == [("cli", "run", "os._exit")], "only `wgm.cli.run` may end the process, and only once"
