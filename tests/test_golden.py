"""Golden output: the sha256 of every byte the CLI writes for the bundled
fixture. A kernel change that moves any output byte fails here; a change
meant to alter the output must update these digests on purpose."""

import hashlib

import pytest

from wgm.cli import main

GRAPH = ["--nodes", "nodes.tsv", "--edges", "edges.tsv"]
EDITS = ["--edits", "edits.tsv", "--catmap", "catmap.tsv", "--catnames", "catnames.tsv"]

GOLDEN = {
    "report": (["report", *GRAPH, *EDITS], "790ef6d01acf2873d7de6c2e3e61af431b518772c1e020ed189a31cbebbbce61"),
    "report-undirected": (
        ["report", "--undirected", *GRAPH, *EDITS],
        "a5bc7d3319bc0dd4e2668f22dab2a9d1cc1a9443de25655fa006075d3a49aafb",
    ),
    "cluster-csv": (["cluster", "--format", "csv", *GRAPH], "ed6e6fb8d641203613897f73d6e663a1bf8d2d0532e95a18bf200471e2cabec7"),
    "paths-csv": (["paths", "--format", "csv", *GRAPH], "80663992e35a2dab026c20d39af82de96c94aa6012e4d4807c09b6a4e12c15a2"),
    "paths-undirected-csv": (
        ["paths", "--undirected", "--format", "csv", *GRAPH],
        "76aaefc7ee01ced4598c548baed9be090107c74025d3e615bb46ef3ced20c696",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_output_digest(name, data_dir, tmp_path):
    argv, digest = GOLDEN[name]
    argv = [str(data_dir / a) if a.endswith(".tsv") else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
