"""One way out of a `wgm` process: `wgm.cli.run` ends it with `os._exit`
once its output is flushed. Nothing else in `src/wgm` ends the process, so
a program that calls `wgm` as a library keeps running after each call.

One writer of stdout: `wgm.cli._write` writes and flushes every stdout
byte, and names a write that fails. So `run`'s own flush of stdout finds
nothing left to write."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgm"
# (module, name) of each function that ends the process; None is a builtin
EXITS = {("os", "_exit"), ("os", "abort"), ("sys", "exit"), (None, "exit"), (None, "quit")}


def walk(tree, scope=""):
    """(scope, node) for each node of `tree`, where the scope is the dotted
    name of the enclosing functions and classes."""
    yield scope, tree
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{tree.name}" if scope else tree.name
    for child in ast.iter_child_nodes(tree):
        yield from walk(child, scope)


def exit_names(node):
    """The ways `node` can end the process: a use of `os._exit`, `os.abort`
    or `sys.exit`, called or not, importing one of them by name, calling
    `exit` or `quit`, and raising `SystemExit`."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (node.value.id, node.attr) in EXITS:
        return [f"{node.value.id}.{node.attr}"]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names if (node.module, alias.name) in EXITS]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (None, node.func.id) in EXITS:
        return [node.func.id]
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return ["SystemExit"] if isinstance(exc, ast.Name) and exc.id == "SystemExit" else []
    return []


def stdout_writes(node):
    """The ways `node` writes to stdout: a `print` call without
    `file=sys.stderr`, and a use of `sys.stdout.write` or `sys.stdout.writelines`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        target = next((ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"), None)
        return [] if target == "sys.stderr" else ["print"]
    if isinstance(node, ast.Attribute) and node.attr in ("write", "writelines") and ast.unparse(node.value) == "sys.stdout":
        return [f"sys.stdout.{node.attr}"]
    return []


def scan(tree, names):
    """(scope, line, name) of each of `names(node)` over the nodes of `tree`."""
    return [(scope, node.lineno, name) for scope, node in walk(tree) for name in names(node)]


def process_exits(tree):
    return scan(tree, exit_names)


def src_scan(names):
    """(module, scope, name) of each of `names(node)` over `src/wgm`."""
    return [
        (path.stem, scope, name)
        for path in sorted(SRC.glob("*.py"))
        for scope, _, name in scan(ast.parse(path.read_text(encoding="utf-8")), names)
    ]


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
    assert src_scan(exit_names) == [("cli", "run", "os._exit")], "only `wgm.cli.run` may end the process, and only once"


def test_scan_finds_each_stdout_write():
    code = (
        "import sys\n"
        "print('a')\n"
        "def f():\n    print('b', file=sys.stderr)\n    print('c', file=sys.stdout)\n"
        "class C:\n    def g(self):\n        sys.stdout.write('d')\n"
        "lines = sys.stdout.writelines\n"
        "sys.stderr.write('e')\n"
        "sys.stdout.flush()\n"
    )
    assert scan(ast.parse(code), stdout_writes) == [
        ("", 2, "print"),
        ("f", 5, "print"),
        ("C.g", 8, "sys.stdout.write"),
        ("", 9, "sys.stdout.writelines"),
    ]


def test_src_writes_stdout_only_in_cli_write():
    assert src_scan(stdout_writes) == [("cli", "_write", "sys.stdout.write")], "only `wgm.cli._write` may write stdout"
