"""The one-thread OpenBLAS pin in `wgm/__init__.py`, and the premise it
rests on: wgm makes no BLAS call. The pin checks run in a fresh
interpreter, because pytest has loaded numpy before any test runs."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
# numpy names whose routines reach BLAS or LAPACK
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "polyfit", "lstsq"}


def run_python(argv, blas_threads=None, cwd=None):
    """A fresh interpreter with `wgm` from `src` and OPENBLAS_NUM_THREADS
    set to `blas_threads` (removed when None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize(
    "imports, blas_threads, seen",
    [
        ("wgm", None, "1"),
        ("wgm", "2", "2"),  # a value the user set is kept
        ("numpy, wgm", None, "None"),  # too late to pin: the environment is left alone
    ],
)
def test_import_pins_blas_threads(imports, blas_threads, seen):
    code = f"import os, {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(["-c", code], blas_threads).decode().strip() == seen


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_worker():
    # `import wgm` alone loads no numpy; `wgm.cli` loads it after the pin
    code = "import os, wgm.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_python(["-c", code]).decode().strip() == "1"


@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_report_bytes_do_not_depend_on_blas_threads(blas_threads):
    argv, digest = GOLDEN["report"]
    out = run_python(["-m", "wgm.cli", *argv], blas_threads, cwd=DATA)
    assert hashlib.sha256(out).hexdigest() == digest


def blas_uses(tree):
    """(line, name) of each `@`, each BLAS-reaching numpy name that is
    imported or read as an attribute, and each `from numpy import *` in
    `tree`. A bare name reaches numpy only through an import, so a local
    spelled like a routine (`inner`, `dot`) is no finding."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            words = ["@"]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            words = (node.module or "").split(".")
            words += ["import *"] if words[0] == "numpy" and any(a.name == "*" for a in node.names) else []
        else:
            continue
        yield from ((node.lineno, w) for w in words if w in ("@", "import *") or w in BLAS_NAMES)


def test_blas_uses_finds_each_form():
    code = (
        "a @ b\na @= b\nnp.dot(a, b)\nfrom numpy import linalg\nimport numpy.linalg\nfrom numpy.linalg import norm\n"
        "from numpy import *\ninner = 0\na.dot(b)"
    )
    expected = [(1, "@"), (2, "@"), (3, "dot"), (4, "linalg"), (5, "linalg"), (6, "linalg"), (7, "import *"), (9, "dot")]
    assert sorted(blas_uses(ast.parse(code))) == expected


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "wgm").glob("*.py")), ids=lambda p: p.name)
def test_src_makes_no_blas_call(path):
    uses = sorted(set(blas_uses(ast.parse(path.read_text(encoding="utf-8")))))
    assert not uses, (
        f"{path.name} uses {uses}: a BLAS call means the one-thread OPENBLAS_NUM_THREADS pin "
        "in wgm/__init__.py must be reconsidered"
    )
