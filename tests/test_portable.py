"""The same output bytes on every x86 CPU: numpy sends float64 `log`, `exp`
and `power` to SIMD loops that, on CPUs with AVX-512, round differently
from libm (`np.log(9170.0)` is one ulp off `math.log(9170.0)` there), so
`src/wgm` computes its transcendentals with `math`."""

import ast
from pathlib import Path

import pytest

from wgm.degrees import DegreeHistogram, fit_power_law, fit_power_law_mle

from oracles import power_law_fit_math

SRC = Path(__file__).resolve().parent.parent / "src" / "wgm"
# numpy functions whose float64 loops are SIMD-dispatched transcendentals
TRANSCENDENTALS = {"log", "log2", "log10", "log1p", "exp", "expm1", "power"}


def numpy_transcendentals(tree):
    """(line, name) of each use of a numpy transcendental in `tree`:
    `np.<name>` or `numpy.<name>`, called or not, and `from numpy import
    <name>`. The `**` operator on an array (as in `wgm.synth`'s Zipf
    weights) reaches `np.power` too, but a scan of names cannot tell an
    array operand from a Python float, so it is out of this scan's reach."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in TRANSCENDENTALS)


def test_scan_finds_each_name():
    code = "np.log(a)\nnumpy.exp(b)\nnp.power.reduce(a)\nmath.log(c)\nnp.sqrt(a)\nmap(np.log1p, x)\nfrom numpy import log2, abs"
    expected = [(1, "log"), (2, "exp"), (3, "power"), (6, "log1p"), (7, "log2")]
    assert sorted(numpy_transcendentals(ast.parse(code))) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_calls_no_numpy_transcendental(path):
    calls = sorted(numpy_transcendentals(ast.parse(path.read_text(encoding="utf-8"))))
    assert not calls, f"{path.name} calls {calls}: use math.* per value so that the bytes do not depend on the CPU"


# two points, so that numpy's sums and the reference's left-to-right sums agree;
# 9,170 is the first integer where AVX-512 `np.log` differs from `math.log`
HISTOGRAMS = [{1: 9170, 2: 1000}, {1: 9170, 7: 3}, {3: 12, 9170: 2}, {1: 40, 2: 9170}]


@pytest.mark.parametrize("entries", HISTOGRAMS, ids=str)
@pytest.mark.parametrize("mle", [False, True], ids=["ls", "mle"])
def test_fit_equals_math_reference(entries, mle):
    fitter = fit_power_law_mle if mle else fit_power_law
    fit = fitter(DegreeHistogram(entries=entries, which="total"))
    assert (fit.alpha, fit.log_prefactor, fit.r_squared) == power_law_fit_math(entries, mle=mle)
