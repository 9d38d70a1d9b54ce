"""One way out of a `wgm` process: `wgm.cli.run` ends it with `os._exit`.
Nothing else in `src/wgm` ends the process, so a program that calls `wgm`
as a library keeps running after each call.

One owner per stream: `wgm.cli._write` is the only code that touches
stdout, and it writes and flushes every byte; `wgm.cli.main` is the only
code that touches stderr, and it writes one whole line. So `run` has
nothing to flush before it exits, and no other code can leave a byte
buffered or fail on a closed stream."""

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


# the names of each standard stream, as an attribute of `sys`
STREAMS = {"stdout": "sys.stdout", "__stdout__": "sys.stdout", "stderr": "sys.stderr", "__stderr__": "sys.stderr"}


def stream_uses(node):
    """The standard streams `node` touches: a use of `sys.stdout` or
    `sys.stderr` (or `sys.__stdout__`, `sys.__stderr__`), importing one of
    them by name, and a `print` call without `file=`, which writes stdout."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sys":
        return [STREAMS[node.attr]] if node.attr in STREAMS else []
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return [STREAMS[alias.name] for alias in node.names if alias.name in STREAMS]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        return [] if any(kw.arg == "file" for kw in node.keywords) else ["sys.stdout"]
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


def test_scan_finds_each_stream_use():
    code = (
        "import sys\n"
        "print('a')\n"
        "def f():\n    print('b', file=sys.stderr)\n    print('c', file=sys.stdout)\n    print('d', file=log)\n"
        "class C:\n    def g(self):\n        sys.stdout.write('e')\n"
        "lines = sys.stdout.writelines\n"
        "sys.stderr.flush()\n"
        "if sys.stdout is None: pass\n"
        "from sys import stderr, argv, __stdout__\n"
        "sys.argv = sys.__stderr__\n"
    )
    assert scan(ast.parse(code), stream_uses) == [
        ("", 2, "sys.stdout"),
        ("f", 4, "sys.stderr"),
        ("f", 5, "sys.stdout"),
        ("C.g", 9, "sys.stdout"),
        ("", 10, "sys.stdout"),
        ("", 11, "sys.stderr"),
        ("", 12, "sys.stdout"),
        ("", 13, "sys.stderr"),
        ("", 13, "sys.stdout"),
        ("", 14, "sys.stderr"),
    ]


def test_src_touches_each_stream_in_one_function():
    assert set(src_scan(stream_uses)) == {("cli", "_write", "sys.stdout"), ("cli", "main", "sys.stderr")}, (
        "only `wgm.cli._write` may touch stdout, and only `wgm.cli.main` stderr"
    )
