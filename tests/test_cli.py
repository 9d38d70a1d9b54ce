import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgm.cli import FLAGS, MAX_PAIRS, MAX_SAMPLES, MAX_SYNTH, MIN_BIN_WIDTH, RunConfig, build_parser, main, render
from wgm.degrees import DegreeHistogram
from wgm.edits import HISTOGRAM_VALUE_BOUND, MAX_HISTOGRAM_BINS
from wgm.errors import UsageError
from wgm.structure import PathSampleResult

from oracles import render_csv, render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cycle_fixture(tmp_path):
    (tmp_path / "nodes.tsv").write_text("0\tA\t0\n1\tB\t0\n2\tC\t0\n", encoding="utf-8")
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n2\t0\n", encoding="utf-8")
    return str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv")


def write_edit_fixture(tmp_path):
    (tmp_path / "edits.tsv").write_text("1\t10\n1\t10\n2\t10\n1\t11\n0\t11\n", encoding="utf-8")
    (tmp_path / "catmap.tsv").write_text("10\t5\n11\t6\n", encoding="utf-8")
    (tmp_path / "catnames.tsv").write_text("5\tscience\n6\tsports\n", encoding="utf-8")
    return (
        str(tmp_path / "edits.tsv"),
        str(tmp_path / "catmap.tsv"),
        str(tmp_path / "catnames.tsv"),
    )


@dataclass(frozen=True)
class Cell:
    name: str
    value: object

    @property
    def pair(self):
        return (self.name, self.value)


@dataclass(frozen=True)
class Nothing:
    """A dataclass with no fields, whose plain form is the one empty JSON object."""


@dataclass(frozen=True)
class Flat:
    """A flat record with a property, which CSV writes as sorted key,value rows."""

    low: object
    high: object

    @property
    def both_none(self):
        return self.low is None and self.high is None


# floats where repr changes notation (1e16, 1e-5), the smallest subnormal,
# -0.0 and the non-finite values, besides arbitrary ones
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, math.inf, -math.inf, math.nan])
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600ab ') | st.characters(), max_size=6)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | FLOATS
    | FLOATS.map(np.float64)
    | TEXT
    | st.builds(Nothing)
)
PLAIN_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.integers() | st.booleans(), inner, max_size=4)
    | st.builds(Cell, TEXT, inner),
    max_leaves=24,
)
# CSV cells: scalars, and strings that need no quoting
CSV_TEXT = st.text(
    st.sampled_from("\\/\x00\x1f\x7f\t\u00e9\u2028\ud800\U0001f600ab ;'") | st.characters(exclude_characters=',"\r\n'),
    max_size=6,
)
CELLS = st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200) | FLOATS | FLOATS.map(np.float64) | CSV_TEXT
ROWS = st.lists(CELLS, max_size=4)
TABLES = st.lists(ROWS | ROWS.map(tuple), max_size=5) | st.dictionaries(st.integers(), CELLS, max_size=5)
FLAT_RECORDS = st.dictionaries(CSV_TEXT, CELLS, min_size=1, max_size=5) | st.builds(Flat, CELLS, CELLS)


class TestRender:
    @settings(max_examples=600, deadline=None)
    @given(value=PLAIN_VALUES)
    def test_json_equals_json_dumps_of_the_reference_plain_form(self, value):
        assert render(value) == render_json(value)

    def test_json_keeps_properties_and_rows(self):
        hist = DegreeHistogram(entries={3: 1, 0: 2}, which="in")
        assert json.loads(render(hist)) == {"entries": [[0, 2], [3, 1]], "which": "in", "zero_count": 2}

    def test_nan_is_null_in_json_and_empty_in_flat_csv(self):
        res = PathSampleResult(float("nan"), 0, 5, 1.0, 7)
        assert json.loads(render(res))["mean_path_length"] is None
        assert render(res, "csv").splitlines() == [
            "key,value",
            "mean_path_length,",
            "reachable_pairs,0",
            "sampled_pairs,5",
            "seed,7",
            "unreachable_fraction,1.0",
        ]

    def test_null_is_an_empty_table_cell(self):
        assert render([[1, None], [2, float("nan")]], "csv", ("a", "b")) == "a,b\n1,\n2,\n"

    @settings(max_examples=400, deadline=None)
    @given(table=TABLES, columns=st.lists(CSV_TEXT, max_size=4).map(tuple))
    def test_table_csv_equals_the_reference(self, table, columns):
        assert render(table, "csv", columns) == render_csv(table, columns)

    @settings(max_examples=400, deadline=None)
    @given(record=FLAT_RECORDS)
    def test_flat_record_csv_equals_the_reference(self, record):
        assert render(record, "csv") == render_csv(record)

    def test_csv_quotes_commas_quotes_and_line_breaks(self):
        text = render([["a,b", 'say "hi"', "two\nlines", "plain"]], "csv", ("w", "x", "y", "z"))
        assert text == 'w,x,y,z\n"a,b","say ""hi""","two\nlines",plain\n'
        assert list(csv.reader(text.splitlines(keepends=True))) == [
            ["w", "x", "y", "z"], ["a,b", 'say "hi"', "two\nlines", "plain"]
        ]

    def test_paths_csv_without_reachable_pairs(self, tmp_path, capsys):
        (tmp_path / "nodes.tsv").write_text("0\tA\t0\n1\tB\t0\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("", encoding="utf-8")
        files = ["--nodes", str(tmp_path / "nodes.tsv"), "--edges", str(tmp_path / "edges.tsv")]
        code, out, _ = run(capsys, "paths", "--format", "csv", *files)
        assert code == 0
        assert "mean_path_length,\n" in out


class TestClassify:
    def test_cycle_is_all_regular(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(capsys, "classify", "--nodes", nodes, "--edges", edges)
        assert code == 0
        payload = json.loads(out)
        assert {k: payload[k] for k in ("all_round", "referring", "guru", "regular")} == {
            "all_round": 0,
            "referring": 0,
            "guru": 0,
            "regular": 3,
        }

    def test_csv_format(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(capsys, "classify", "--nodes", nodes, "--edges", edges, "--format", "csv")
        assert code == 0
        assert out.startswith("key,value\n")


class TestDegrees:
    def test_json_summary(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(capsys, "degrees", "--nodes", nodes, "--edges", edges)
        payload = json.loads(out)
        assert code == 0
        assert payload["node_count"] == 3
        assert payload["edge_count"] == 3
        assert payload["mean_degree"] == 2.0
        assert payload["histogram"]["entries"] == [[2, 3]]
        assert payload["top_out"][0][1] == 1

    def test_csv_histogram(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(
            capsys, "degrees", "--nodes", nodes, "--edges", edges, "--format", "csv"
        )
        assert code == 0
        assert out == "degree,count\n2,3\n"

    def test_namespace_filter_applied(self, tmp_path, capsys):
        (tmp_path / "nodes.tsv").write_text("0\tA\t0\n1\tTalk:A\t1\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("0\t1\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "degrees",
            "--nodes",
            str(tmp_path / "nodes.tsv"),
            "--edges",
            str(tmp_path / "edges.tsv"),
        )
        payload = json.loads(out)
        assert payload["node_count"] == 1
        assert payload["edge_count"] == 0


class TestCluster:
    def test_trace_files_byte_identical(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                "cluster",
                "--nodes", nodes,
                "--edges", edges,
                "--samples", "5000",
                "--seed", "1",
                "--format", "csv",
                "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_payload(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(
            capsys, "cluster", "--nodes", nodes, "--edges", edges, "--samples", "300"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["final_estimate"] == 1.0  # one-way cycle closes one triangle
        assert payload["seed"] == 42
        assert payload["estimates"][-1][0] == 300


class TestPaths:
    def test_json_fields(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(capsys, "paths", "--nodes", nodes, "--edges", edges, "--pairs", "50")
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {
            "mean_path_length",
            "reachable_pairs",
            "sampled_pairs",
            "unreachable_fraction",
            "seed",
        }
        assert payload["sampled_pairs"] == 50
        assert payload["unreachable_fraction"] == 0.0


class TestFit:
    def test_ls_and_mle(self, tmp_path, capsys):
        from wgm.graph import build_graph
        from wgm.ingest import NodeRecord, write_edges, write_nodes
        from wgm.synth import generate_preferential

        g = generate_preferential(800, 3, seed=3)
        write_nodes([NodeRecord(i, f"v{i}", 0) for i in range(800)], tmp_path / "n.tsv")
        write_edges([tuple(e) for e in g.edges().tolist()], tmp_path / "e.tsv")
        for method in ("ls", "mle"):
            code, out, _ = run(
                capsys,
                "fit",
                "--nodes", str(tmp_path / "n.tsv"),
                "--edges", str(tmp_path / "e.tsv"),
                "--xmin", "3",
                "--method", method,
            )
            payload = json.loads(out)
            assert code == 0
            assert 1.5 <= payload["alpha"] <= 4.5
            assert payload["x_min"] == 3


class TestEditCommands:
    def test_categories_csv(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        code, out, _ = run(
            capsys,
            "categories",
            "--edits", edits,
            "--catmap", catmap,
            "--catnames", catnames,
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "category,n_edits,n_authors,ea_bar,top20pct_share,top1_share"
        assert lines[1].startswith("science,3,2,1.5,")

    def test_categories_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        Path(catnames).write_text('5\tScience, Technology\n6\tthe "sports"\n', encoding="utf-8")
        code, out, _ = run(
            capsys, "categories", "--edits", edits, "--catmap", catmap, "--catnames", catnames, "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows] == ["category", "Science, Technology", 'the "sports"']

    def test_categories_json_respects_include_anonymous(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        code, out, _ = run(
            capsys, "categories", "--edits", edits, "--catmap", catmap, "--catnames", catnames
        )
        payload = json.loads(out)
        sports = [row for row in payload if row["category"] == "sports"][0]
        assert sports["n_authors"] == 2  # author 0 counted
        assert sports["top1_share"] == 1.0  # but excluded from the ranking

        code, out, _ = run(
            capsys,
            "categories",
            "--edits", edits,
            "--catmap", catmap,
            "--catnames", catnames,
            "--include-anonymous",
        )
        sports = [row for row in json.loads(out) if row["category"] == "sports"][0]
        assert sports["top1_share"] == 0.5

    def test_entropy_json_and_csv(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        code, out, _ = run(
            capsys, "entropy", "--edits", edits, "--catmap", catmap, "--catnames", catnames
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["min_entropy"] == 0.0
        authors = [a for a, _ in payload["entries"]]
        assert 0 in authors
        assert payload["anonymous_active_categories"] == 1
        assert sum(c for _, c in payload["active_categories"]) == len(authors)
        assert sum(c for *_, c in payload["max_share_histogram"]) == len(authors)
        code, out, _ = run(
            capsys,
            "entropy",
            "--edits", edits,
            "--catmap", catmap,
            "--catnames", catnames,
            "--format", "csv",
        )
        assert out.startswith("bin_lower,bin_upper,author_count\n")

    def test_entropy_histogram_selector(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        base = ["entropy", "--edits", edits, "--catmap", catmap, "--catnames", catnames,
                "--format", "csv"]
        code, out, _ = run(capsys, *base, "--histogram", "active")
        assert code == 0
        assert out.startswith("active_categories,author_count\n")
        code, out, _ = run(capsys, *base, "--histogram", "max-share")
        assert code == 0
        assert out.startswith("bin_lower,bin_upper,author_count\n")

    def test_max_share_csv_rows_equal_json(self, data_dir, capsys):
        base = ["entropy", *(f"--{n}={data_dir / n}.tsv" for n in ("edits", "catmap", "catnames"))]
        code, out, _ = run(capsys, *base)
        assert code == 0
        expected = json.loads(out)["max_share_histogram"]
        # --bin-width sets the entropy histogram only
        for extra in ([], ["--bin-width", "0.1"]):
            code, out, _ = run(capsys, *base, *extra, "--format", "csv", "--histogram", "max-share")
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [[float(lo), float(hi), int(c)] for lo, hi, c in rows] == expected

    def test_anonymous_only_category_skipped_in_both_formats(self, tmp_path, capsys):
        _, catmap, catnames = write_edit_fixture(tmp_path)
        # article 11 is alone in category 6, edited only by the anonymous author
        (tmp_path / "edits.tsv").write_text("1\t10\n2\t10\n0\t11\n", encoding="utf-8")
        base = ["categories", "--edits", str(tmp_path / "edits.tsv"), "--catmap", catmap, "--catnames", catnames]
        code, out, err = run(capsys, *base, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "category,n_edits,n_authors,ea_bar,top20pct_share,top1_share\nscience,2,2,1.0,0.5,0.5\n"
        code, out, _ = run(capsys, *base)
        assert code == 0
        assert [row["category"] for row in json.loads(out)] == ["science"]


class TestSynth:
    def test_preferential_writes_loadable_tsvs(self, tmp_path, capsys):
        out_dir = tmp_path / "synthetic"
        code, out, _ = run(
            capsys,
            "synth",
            "--kind", "preferential",
            "--n", "50",
            "--m", "2",
            "--seed", "5",
            "--out", str(out_dir),
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["written"] == ["nodes.tsv", "edges.tsv"]
        code, out, _ = run(
            capsys,
            "degrees",
            "--nodes", str(out_dir / "nodes.tsv"),
            "--edges", str(out_dir / "edges.tsv"),
        )
        payload = json.loads(out)
        assert payload["node_count"] == 50
        assert payload["edge_count"] == 100

    def test_zipf_edits_feed_categories(self, tmp_path, capsys):
        out_dir = tmp_path / "synthetic"
        code, _, _ = run(
            capsys,
            "synth",
            "--kind", "zipf-edits",
            "--authors", "20",
            "--categories", "4",
            "--edits-total", "500",
            "--out", str(out_dir),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "categories",
            "--edits", str(out_dir / "edits.tsv"),
            "--catmap", str(out_dir / "catmap.tsv"),
            "--catnames", str(out_dir / "catnames.tsv"),
        )
        assert code == 0
        assert sum(row["n_edits"] for row in json.loads(out)) == 500

    def test_uniform_dispatch_and_generator_errors(self, tmp_path, capsys):
        out = str(tmp_path / "u")
        code, _, _ = run(capsys, "synth", "--kind", "uniform", "--n", "30", "--p", "1.0", "--out", out)
        assert code == 0
        assert (tmp_path / "u" / "edges.tsv").read_text(encoding="utf-8").count("\n") == 30 * 29
        code, _, err = run(capsys, "synth", "--kind", "preferential", "--n", "5", "--m", "9", "--out", out)
        assert (code, err) == (5, "error: preferential attachment needs 1 <= m < n, got m=9, n=5\n")
        code, _, err = run(capsys, "synth", "--kind", "uniform", "--n", "5", "--p", "2", "--out", out)
        assert (code, err) == (5, "error: uniform random needs 0 <= p <= 1, got p=2.0\n")

    def test_synth_unwritable_out_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "synth", "--kind", "uniform", "--n", "10", "--out", str(blocker / "sub"))
        assert code == 2
        assert str(blocker / "sub") in err and err.count("\n") == 1

    @pytest.mark.parametrize("kind, blocked", [("preferential", "nodes.tsv"), ("zipf-edits", "edits.tsv")])
    def test_synth_unwritable_file_is_2(self, tmp_path, capsys, kind, blocked):
        (tmp_path / blocked).mkdir()  # a directory where the file should go
        sizes = ("--n", "10", "--m", "2") if kind == "preferential" else ("--authors", "5", "--edits-total", "20")
        code, out, err = run(capsys, "synth", "--kind", kind, *sizes, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert str(tmp_path / blocked) in err and err.startswith("error: cannot write") and err.count("\n") == 1

    def test_synth_requires_out(self, capsys):
        code, _, err = run(capsys, "synth", "--kind", "uniform", "--n", "10", "--p", "0.1")
        assert code == 2
        assert "error:" in err


class TestReport:
    def test_bundled_fixture_full_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "report",
            "--nodes", str(data_dir / "nodes.tsv"),
            "--edges", str(data_dir / "edges.tsv"),
            "--edits", str(data_dir / "edits.tsv"),
            "--catmap", str(data_dir / "catmap.tsv"),
            "--catnames", str(data_dir / "catnames.tsv"),
            "--samples", "2000",
            "--pairs", "500",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "config",
            "graph",
            "degree_histogram",
            "classification",
            "clustering",
            "paths",
            "degree_fit",
            "categories",
            "entropy",
        }
        assert payload["graph"]["node_count"] == 1000
        quadrants = payload["classification"]
        assert (
            quadrants["all_round"]
            + quadrants["referring"]
            + quadrants["guru"]
            + quadrants["regular"]
            == 1000
        )

    def test_report_on_synthetic_attachment_graph_embeds_plausible_alpha(self, tmp_path, capsys):
        out_dir = tmp_path / "ba"
        code, _, _ = run(
            capsys,
            "synth",
            "--kind", "preferential",
            "--n", "10000",
            "--m", "3",
            "--seed", "7",
            "--out", str(out_dir),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "report",
            "--nodes", str(out_dir / "nodes.tsv"),
            "--edges", str(out_dir / "edges.tsv"),
            "--samples", "2000",
            "--pairs", "500",
            "--xmin", "3",
        )
        payload = json.loads(out)
        assert code == 0
        assert 2.4 <= payload["degree_fit"]["alpha"] <= 3.4

    def test_graph_only_report_skips_edit_sections(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, _ = run(
            capsys, "report", "--nodes", nodes, "--edges", edges, "--samples", "100", "--pairs", "10"
        )
        payload = json.loads(out)
        assert code == 0
        assert "categories" not in payload
        assert "entropy" not in payload
        # a one-degree-value graph has no fittable line; the section says why
        assert "error" in payload["degree_fit"]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(capsys, "classify", "--percentile", "1.5")[0] == 2

    def test_unknown_flag_is_2(self, capsys):
        assert run(capsys, "classify", "--bogus")[0] == 2

    def test_parse_error_is_3(self, tmp_path, capsys):
        (tmp_path / "nodes.tsv").write_text("x\tA\t0\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("", encoding="utf-8")
        code, _, err = run(
            capsys,
            "degrees",
            "--nodes", str(tmp_path / "nodes.tsv"),
            "--edges", str(tmp_path / "edges.tsv"),
        )
        assert code == 3
        assert err.startswith("error:")
        assert err.count("\n") == 1  # single-line diagnostic

    def test_duplicate_category_name_is_3(self, tmp_path, capsys):
        edits, catmap, catnames = write_edit_fixture(tmp_path)
        (tmp_path / "catnames.tsv").write_text("# names\n5\tfirst\n6\tsports\n\n5\tsecond\n", encoding="utf-8")
        code, out, err = run(capsys, "categories", "--edits", edits, "--catmap", catmap, "--catnames", catnames)
        assert (code, out) == (3, "")
        assert err == f"error: {catnames}:5: category id 5 already named on line 2\n"

    def test_missing_file_is_3(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "degrees",
            "--nodes", str(tmp_path / "missing.tsv"),
            "--edges", str(tmp_path / "missing2.tsv"),
        )
        assert code == 3

    def test_empty_input_is_4(self, tmp_path, capsys):
        (tmp_path / "nodes.tsv").write_text("", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("", encoding="utf-8")
        code, _, _ = run(
            capsys,
            "degrees",
            "--nodes", str(tmp_path / "nodes.tsv"),
            "--edges", str(tmp_path / "edges.tsv"),
        )
        assert code == 4

    def test_domain_error_is_5(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        code, _, _ = run(
            capsys, "fit", "--nodes", nodes, "--edges", edges, "--xmin", "50"
        )
        assert code == 5

    def test_report_csv_is_2_before_io(self, tmp_path, capsys):
        missing = [str(tmp_path / name) for name in ("n", "e")]
        code, out, err = run(capsys, "report", "--format", "csv", "--nodes", missing[0], "--edges", missing[1])
        assert (code, out) == (2, "")
        assert "--format csv" in err and err.count("\n") == 1

    def test_report_with_catmap_alone_is_2(self, tmp_path, capsys):
        # the map path does not exist, and the flag used to be dropped silently
        nodes, edges = write_cycle_fixture(tmp_path)
        code, out, err = run(capsys, "report", "--nodes", nodes, "--edges", edges, "--catmap", str(tmp_path / "m"))
        assert (code, out) == (2, "")
        assert "--edits is required" in err and err.count("\n") == 1

    def test_report_with_edits_alone_is_2_before_io(self, tmp_path, capsys):
        # the node table does not exist: reading it would exit 3
        edits, _, _ = write_edit_fixture(tmp_path)
        missing = [str(tmp_path / name) for name in ("n", "e")]
        code, out, err = run(capsys, "report", "--nodes", missing[0], "--edges", missing[1], "--edits", edits)
        assert (code, out) == (2, "")
        assert "--catmap is required" in err and err.count("\n") == 1

    def test_unwritable_out_is_2_naming_the_path(self, tmp_path, capsys):
        nodes, edges = write_cycle_fixture(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        code, _, err = run(capsys, "degrees", "--nodes", nodes, "--edges", edges, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and str(out) in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"])
    @pytest.mark.parametrize("command", ["paths", "report", "synth"])
    def test_full_stdout_is_2(self, tmp_path, command, unbuffered):
        # a fresh process, which `wgm.cli.run` ends with `os._exit` as soon as `main` returns
        data = Path(__file__).parent / "data"
        args = ["--nodes", str(data / "nodes.tsv"), "--edges", str(data / "edges.tsv"), "--pairs", "5"]
        if command == "synth":
            args = ["--kind", "uniform", "--n", "10", "--out", str(tmp_path)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(data.parent.parent / "src"), env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "wgm.cli", command, *args],
                stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write stdout") and proc.stderr.count("\n") == 1

    def test_unreadable_input_is_still_3(self, tmp_path, capsys):
        nodes, _ = write_cycle_fixture(tmp_path)
        code, _, err = run(capsys, "degrees", "--nodes", nodes, "--edges", str(tmp_path))
        assert code == 3
        assert err.count("\n") == 1

    def test_threads_env_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WGM_THREADS", "2")
        nodes, edges = write_cycle_fixture(tmp_path)
        code, _, _ = run(
            capsys, "report", "--nodes", nodes, "--edges", edges, "--samples", "100", "--pairs", "10"
        )
        assert code == 0

    def test_threads_env_ignored(self, tmp_path, capsys, monkeypatch):
        nodes, edges = write_cycle_fixture(tmp_path)
        argv = ("report", "--nodes", nodes, "--edges", edges, "--samples", "100", "--pairs", "10")
        monkeypatch.delenv("WGM_THREADS", raising=False)
        expected = run(capsys, *argv)
        for value in ("many", "-1", "2"):
            monkeypatch.setenv("WGM_THREADS", value)
            assert run(capsys, *argv) == expected
        assert expected[0] == 0


ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


def spawn(*argv, **kwargs):
    """`python argv` in a child, with this checkout's `src` first on PYTHONPATH."""
    env = kwargs.pop("env", os.environ)
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 120, **kwargs}
    return subprocess.run([sys.executable, *argv], env=env, **kwargs)


@contextlib.contextmanager
def fifo_holding(path, data):
    """A FIFO at `path` that a thread writes `data` into once, for the first
    reader that opens it."""
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # a writer still waiting for a reader gets one
        writer.join(timeout=30)
    assert not writer.is_alive()


class TestProcessExit:
    """A `wgm` process gives what an in-process `main()` call gives: the
    same exit code, stdout bytes and one-line stderr."""

    @staticmethod
    def exit_inputs(tmp_path):
        """One argv for each exit code."""
        nodes, edges = write_cycle_fixture(tmp_path)
        (tmp_path / "bad.tsv").write_text("0\t1\nx\t2\n", encoding="utf-8")
        (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
        data = ["--nodes", str(DATA / "nodes.tsv"), "--edges", str(DATA / "edges.tsv")]
        return {
            0: ["paths", *data, "--pairs", "50"],
            2: ["paths", *data, "--pairs", "0"],
            3: ["degrees", "--nodes", nodes, "--edges", str(tmp_path / "bad.tsv")],
            4: ["degrees", "--nodes", str(tmp_path / "empty.tsv"), "--edges", str(tmp_path / "empty.tsv")],
            5: ["fit", "--nodes", nodes, "--edges", edges, "--xmin", "50"],
        }

    @pytest.mark.parametrize("code", [0, 2, 3, 4, 5])
    def test_child_equals_main(self, tmp_path, capsys, code):
        argv = self.exit_inputs(tmp_path)[code]
        proc = spawn("-m", "wgm.cli", *argv)
        want = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (want[0], want[1].encode(), want[2])
        assert want[0] == code and want[2].count("\n") == (code != 0)

    def test_out_file_equals_main(self, tmp_path, capsys):
        data = {name: str(DATA / f"{name}.tsv") for name in ("nodes", "edges", "edits", "catmap", "catnames")}
        argv = ["report", *(arg for name, path in data.items() for arg in (f"--{name}", path)), "--pairs", "200"]
        proc = spawn("-m", "wgm.cli", *argv, "--out", str(tmp_path / "child.json"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert run(capsys, *argv, "--out", str(tmp_path / "main.json")) == (0, "", "")
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    def test_closed_pipe_is_2(self):
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before the first write
        argv = ["report", "--nodes", str(DATA / "nodes.tsv"), "--edges", str(DATA / "edges.tsv")]
        try:
            proc = spawn("-m", "wgm.cli", *argv, stdout=writer)
        finally:
            os.close(writer)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: cannot write stdout") and proc.stderr.count(b"\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"])
    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]], ids=["wgm", "report"])
    def test_help_to_full_stdout_is_2(self, argv, unbuffered):
        # the help text goes through `_write`, whose flush meets the full disk whether stdout is buffered or not
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = spawn("-m", "wgm.cli", *argv, stdout=full, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: cannot write stdout") and proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("help_", [True, False], ids=["help", "paths"])
    def test_closed_stdout_is_2(self, tmp_path, help_):
        # Python sets `sys.stdout` to None when fd 1 is closed at start
        argv = ["--help"] if help_ else self.exit_inputs(tmp_path)[0]
        proc = spawn("-m", "wgm.cli", *argv, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: cannot write stdout: ") and proc.stderr.count(b"\n") == 1

    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, capsys):
        # with fd 2 closed at start the exit code alone reports an error, and stdout gets no diagnostic
        argv = self.exit_inputs(tmp_path)[0]
        proc = spawn("-m", "wgm.cli", *argv, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (0, run(capsys, *argv)[1].encode())
        missing = ["paths", "--nodes", str(tmp_path / "missing.tsv"), "--edges", str(tmp_path / "missing.tsv")]
        proc = spawn("-m", "wgm.cli", *missing, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (3, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("code", [0, 2, 3])
    def test_full_stderr_keeps_the_exit_code(self, tmp_path, capsys, code):
        # the `error:` line meets a full disk: the exit code alone reports the error, and stdout is as without it
        missing = str(tmp_path / "missing.tsv")
        argv = ["paths", "--nodes", missing, "--edges", missing] if code == 3 else self.exit_inputs(tmp_path)[code]
        with open("/dev/full", "w") as full:
            proc = spawn("-m", "wgm.cli", *argv, stderr=full)
        assert (proc.returncode, proc.stdout) == (code, run(capsys, *argv)[1].encode())

    def test_failing_stdout_in_process_is_2(self, tmp_path, capsys):
        # `main` called as a library names the failed write and leaves the caller's fd 1 as it was
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        before = os.fstat(1)
        with contextlib.redirect_stdout(FullStdout()):
            code = main(self.exit_inputs(tmp_path)[0])
        assert (code, capsys.readouterr().err) == (2, "error: cannot write stdout: No space left on device\n")
        assert os.path.samestat(before, os.fstat(1))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_in_process_keeps_fd_1(self, tmp_path):
        code = (
            "import os, sys, wgm.cli\n"
            "before = os.fstat(1)\n"
            f"code = wgm.cli.main({self.exit_inputs(tmp_path)[0]!r})\n"
            "print(code, os.path.samestat(before, os.fstat(1)), file=sys.stderr)\n"
            "os._exit(0)\n"  # what the failed write left buffered would fail again at teardown
        )
        with open("/dev/full", "w") as full:
            proc = spawn("-c", code, stdout=full)
        assert proc.returncode == 0
        assert proc.stderr == b"error: cannot write stdout: No space left on device\n2 True\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("flag", ["--edges", "--catmap"])
    def test_fifo_input_is_read_once(self, tmp_path, flag):
        # a FIFO read to its end has no writer left: opening it again to find a line would wait forever
        nodes, _ = write_cycle_fixture(tmp_path)
        edits, _, catnames = write_edit_fixture(tmp_path)
        if flag == "--edges":
            argv, data = ["degrees", "--nodes", nodes], b"# edges\n0\t1\n1\t9\n"
            want = "{}: record 2: edge references unknown node id 9"
        else:
            argv, data = ["categories", "--edits", edits, "--catnames", catnames], b"# map\n10\t5\n11\t7\n"
            want = "{}:3: category 7 has no name entry"
        with fifo_holding(tmp_path / "fifo", data) as fifo:
            proc = spawn("-m", "wgm.cli", *argv, flag, fifo, timeout=30)
        assert (proc.returncode, proc.stderr.decode()) == (3, f"error: {want.format(fifo)}\n")

    def test_escaping_exception_is_a_traceback_and_1(self):
        proc = spawn("-c", "import wgm.cli as cli\ncli.main = lambda: 1 / 0\ncli.run()")
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"Traceback") and proc.stderr.rstrip().endswith(b"ZeroDivisionError: division by zero")

    def test_no_atexit_handler_runs(self):
        code = "import atexit, sys, wgm.cli as cli\natexit.register(print, 'teardown')\nsys.argv[1:] = ['--help']\ncli.run()"
        proc = spawn("-c", code)
        assert proc.returncode == 0 and proc.stdout.startswith(b"usage: wgm")
        assert b"teardown" not in proc.stdout

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library from Python 3.11")
    def test_console_script_is_run(self):
        import tomllib

        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert project["project"]["scripts"]["wgm"] == "wgm.cli:run"


class TestSizeCaps:
    """Extreme sizes are refused by validation, before any file is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("paths", "--pairs", "10000000000000"),
            ("paths", "--pairs", str(MAX_PAIRS + 1)),
            ("cluster", "--samples", "10000000000000"),
            ("report", "--samples", str(MAX_SAMPLES + 1)),
            ("report", "--pairs", str(MAX_PAIRS + 1)),
            ("entropy", "--bin-width", "1e-300"),
            ("entropy", "--bin-width", "5e-324"),
            ("entropy", "--bin-width", "nan"),
            ("report", "--bin-width", str(MIN_BIN_WIDTH / 2)),
            ("entropy", "--bin-width", "inf"),
            ("report", "--bin-width", "inf"),
        ],
    )
    def test_exit_2_before_io(self, tmp_path, capsys, argv):
        # the input files do not exist: reaching I/O would exit 3
        missing = [str(tmp_path / name) for name in ("n", "e", "l", "m", "c")]
        io_flags = {
            "paths": ["--nodes", missing[0], "--edges", missing[1]],
            "cluster": ["--nodes", missing[0], "--edges", missing[1]],
            "entropy": ["--edits", missing[2], "--catmap", missing[3], "--catnames", missing[4]],
            "report": ["--nodes", missing[0], "--edges", missing[1]],
        }[argv[0]]
        code, _, err = run(capsys, *argv, *io_flags)
        assert code == 2
        assert err.count("\n") == 1

    def test_caps_are_inclusive(self):
        RunConfig(command="report", n_pairs=MAX_PAIRS, n_samples=MAX_SAMPLES, bin_width=MIN_BIN_WIDTH).validate()
        for field, value in (("n_pairs", MAX_PAIRS + 1), ("n_samples", MAX_SAMPLES + 1), ("bin_width", 1e-300)):
            cfg = RunConfig(command="report")
            setattr(cfg, field, value)
            with pytest.raises(UsageError):
                cfg.validate()

    @pytest.mark.parametrize("field", ["n", "n_authors", "n_categories", "total_edits"])
    def test_synth_caps_are_inclusive(self, field):
        for value in (MAX_SYNTH - 1, MAX_SYNTH):
            RunConfig(command="synth", synth_kind="zipf-edits", **{field: value}).validate()
        with pytest.raises(UsageError, match="must be <= 10000000"):
            RunConfig(command="synth", synth_kind="zipf-edits", **{field: MAX_SYNTH + 1}).validate()

    @pytest.mark.parametrize(
        "kind, spec, over",
        [("preferential", {"n": MAX_SYNTH // 4, "m": 4}, {"m": 5}), ("uniform", {"n": 4473, "p": 0.49}, {"p": 0.5})],
    )
    def test_edge_count_cap(self, kind, spec, over):
        RunConfig(command="synth", synth_kind=kind, **spec).validate()
        with pytest.raises(UsageError, match="edge count"):
            RunConfig(command="synth", synth_kind=kind, **{**spec, **over}).validate()

    def test_min_bin_width_bounds_the_bin_count(self):
        assert HISTOGRAM_VALUE_BOUND / MIN_BIN_WIDTH <= MAX_HISTOGRAM_BINS


class TestSeedAndSynthLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ("paths", "--seed", "-1", "--nodes", "n", "--edges", "e"),
            ("cluster", "--seed", "-5", "--nodes", "n", "--edges", "e"),
            ("report", "--seed", "-1", "--nodes", "n", "--edges", "e"),
            ("synth", "--kind", "zipf-edits", "--seed", "-3"),
        ],
        ids=["paths", "cluster", "report", "synth"],
    )
    def test_negative_seed_is_2_before_io(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a in ("n", "e") else a for a in argv]
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == "error: --seed must be >= 0, got " + argv[argv.index("--seed") + 1] + "\n"
        assert not out.exists()

    def test_nan_zipf_exponent_is_5(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--kind", "zipf-edits", "--zipf-s", "nan", "--out", str(tmp_path))
        assert code == 5
        assert err == "error: need s > 0, got nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "preferential", "--n", "100000000000"),
            ("--kind", "preferential", "--n", str(MAX_SYNTH // 3 + 1), "--m", "3"),
            ("--kind", "uniform", "--n", "100000", "--p", "0.01"),
            ("--kind", "zipf-edits", "--authors", str(MAX_SYNTH + 1)),
            ("--kind", "zipf-edits", "--categories", str(MAX_SYNTH + 1)),
            ("--kind", "zipf-edits", "--edits-total", str(MAX_SYNTH + 1)),
        ],
    )
    def test_synth_size_over_cap_is_2_before_io(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code, _, err = run(capsys, "synth", *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_usage_errors_from_the_parser_are_one_line(self, capsys):
        for argv in (("paths", "--seed", "x"), ("degrees", "--which", "up"), ("bogus",), ()):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1


GRAPH_INPUTS = {"nodes": "n.tsv", "edges": "e.tsv"}
EDIT_INPUTS = {"edits": "l.tsv", "catmap": "m.tsv", "catnames": "c.tsv"}


class TestParser:
    # each command with only the flags it needs to run, as the RunConfig fields they set
    NEEDED = {
        **dict.fromkeys(("degrees", "classify", "cluster", "paths", "fit", "report"), GRAPH_INPUTS),
        **dict.fromkeys(("categories", "entropy"), EDIT_INPUTS),
        "synth": {"synth_kind": "uniform", "out": "d"},
    }

    @pytest.mark.parametrize("command", sorted(NEEDED))
    def test_parser_supplies_no_default(self, command):
        fields = self.NEEDED[command]
        argv = [command]
        for field, value in fields.items():
            argv += ["--kind" if field == "synth_kind" else f"--{field}", value]
        assert RunConfig(**vars(build_parser().parse_args(argv))) == RunConfig(command=command, **fields)

    def test_every_flag_sets_a_runconfig_field(self):
        names = set(RunConfig.__dataclass_fields__)
        for flag, spec in FLAGS.items():
            assert spec["dest"] in names and "default" not in spec, flag

    def test_each_field_but_command_has_its_own_flag(self):
        assert [f.name for f in fields(RunConfig) if len(f.metadata) != 1] == ["command"]
        names = sorted(f.name for f in fields(RunConfig) if f.name != "command")
        assert sorted(spec["dest"] for spec in FLAGS.values()) == names  # no two fields share a flag

    def test_every_flag_is_in_the_readme(self):
        # a new RunConfig field cannot ship undocumented; `--n` is not found in `--nodes`, nor `--edits` in `--edits-total`
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert [flag for flag in FLAGS if not re.search(rf"{re.escape(flag)}(?![\w-])", readme)] == []

    @pytest.mark.parametrize(
        "kind, sizes", [("preferential", ["--n", "1000"]), ("uniform", ["--n", "1000", "--p", "0.01"])]
    )
    def test_synth_defaults_equal_explicit_values(self, tmp_path, capsys, kind, sizes):
        for out, extra in ((tmp_path / "default", []), (tmp_path / "explicit", sizes)):
            assert run(capsys, "synth", "--kind", kind, "--out", str(out), *extra)[0] == 0
        for name in ("nodes.tsv", "edges.tsv"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


class TestEncoding:
    def test_non_utf8_edit_log_is_3_with_path_and_line(self, tmp_path, capsys):
        _, catmap, catnames = write_edit_fixture(tmp_path)
        edits = tmp_path / "edits.tsv"
        edits.write_bytes(b"# log\n\n1\t10\n2\t1\xff0\n")
        code, _, err = run(
            capsys, "entropy", "--edits", str(edits), "--catmap", catmap, "--catnames", catnames
        )
        assert code == 3
        assert err.startswith(f"error: {edits}:4: ")
        assert err.count("\n") == 1
