"""The benchmark's inputs and output checks stay usable with the program.

`perfbench/workloads.py` writes its inputs through `wgm.ingest` and
`wgm.synth` (`NodeRecord`, `EditRecord`, the row-iterable writers,
`SyntheticEdits.records`), and `perfbench/checks.py` judges the report.
If either stops working with the program, every benchmark run fails;
this test fails first. Both files are read as they are. The report's bytes
are pinned too, so that a tier-1 run checks a perfbench-shaped document.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import wgm.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# sha256 of the tiny workload's report at seed 1: 2,543 lines with named
# categories, the anonymous author's entropy row and a 500-step clustering trace
TINY_REPORT_SHA256 = "3476bffe71fd7b0592db1d2087744080544161e7c9805f57741ddfd576b375b0"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tiny_workload_report_passes_the_checks(tmp_path, monkeypatch):
    workloads, checks = load("workloads", monkeypatch), load("checks", monkeypatch)
    tiny = workloads.Workload("tiny", "test", n_articles=300, n_authors=40, n_categories=6, n_edits=3_000)
    inputs = workloads.generate(tiny, 1, tmp_path / "inputs")
    out = tmp_path / "report.json"
    assert wgm.cli.main([*workloads.report_args(tiny, inputs), "--out", str(out)]) == 0
    assert checks.report_problems(out.read_bytes(), inputs.expected) == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TINY_REPORT_SHA256
