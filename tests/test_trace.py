"""The benchmark's per-layer trace stays wired to the program.

`perfbench/traced_report.py` wraps the public functions `wgm.cli` calls
and counts records at each layer boundary from their arguments and
results. A layer function that is renamed, or a result whose shape no
longer carries its count, leaves that layer at zero without failing the
benchmark; this test makes either one fail here instead.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import wgm.cli
from wgm.graph import ArticleGraph

TRACED_REPORT = Path(__file__).resolve().parent.parent / "perfbench" / "traced_report.py"
GRAPH = ["--nodes", "nodes.tsv", "--edges", "edges.tsv"]
EDITS = ["--edits", "edits.tsv", "--catmap", "catmap.tsv", "--catnames", "catnames.tsv"]


@pytest.fixture
def traced_report():
    """The script as a module; the functions it wraps are put back afterwards."""
    saved = {name: dict(vars(module)) for name, module in sys.modules.items() if name.split(".")[0] == "wgm"}
    undirected_csr = ArticleGraph.undirected_csr
    spec = importlib.util.spec_from_file_location("traced_report", TRACED_REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    ArticleGraph.undirected_csr = undirected_csr
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


def test_fixture_report_trace(traced_report, data_dir, tmp_path, capsys):
    argv = [str(data_dir / a) if a.endswith(".tsv") else a for a in ["report", *GRAPH, *EDITS]]
    out = tmp_path / "report.json"
    assert wgm.cli.main([*argv, "--out", str(out)]) == 0

    assert traced_report.main(["0", *argv]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["exit"] == 0
    assert summary["missing"] == []
    assert summary["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    layers = summary["layers"]
    # 1,025 nodes, 3,050 edges and 6,048 edits in; 1,000 main nodes, their 3,000 edges and every edit kept
    assert layers["ingest.records_in"] == 10_123
    assert layers["ingest.records_kept"] == 10_048
    assert layers["edits.resolved_pairs"] == 647
    assert all(layers[f"{name}_s"] > 0 for name in ("ingest.load_nodes", "ingest.filter", "edits.resolve"))
