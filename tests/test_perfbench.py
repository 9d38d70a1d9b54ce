"""The benchmark's inputs and output checks stay usable with the program.

`perfbench/workloads.py` writes its inputs through `wgm.ingest` and
`wgm.synth` (`NodeRecord`, `EditRecord`, the row-iterable writers,
`SyntheticEdits.records`), and `perfbench/checks.py` judges the report.
If either stops working with the program, every benchmark run fails;
this test fails first. Both files are read as they are.
"""

import importlib.util
import sys
from pathlib import Path

import wgm.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
