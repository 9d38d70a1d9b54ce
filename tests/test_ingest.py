import contextlib
import os

import numpy as np
import pytest
from conftest import node_records, node_table
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import data_lines, write_category_map_loop, write_edges_loop, write_edit_log_loop, write_nodes_loop

import wgm.ingest
from wgm.errors import (
    DuplicateCategoryId,
    DuplicateNodeId,
    ParseError,
    UnknownNodeInEdge,
    UnnamedCategory,
)
from wgm.ingest import (
    CategoryMap,
    EditRecord,
    NodeRecord,
    filter_main_namespace,
    load_category_map,
    load_edges,
    load_edit_log,
    load_nodes,
    write_category_map,
    write_edges,
    write_edit_log,
    write_nodes,
)


# a line ends at LF, CRLF or a lone CR
LINE_ENDS, LINE_END_IDS = [b"\n", b"\r\n", b"\r"], ["lf", "crlf", "cr"]
# ids 0..3 are known (named); 4 and 5 are not
KNOWN = {0, 1, 2, 3}
# two-column files in random layouts: records, comment and blank lines anywhere,
# one line end per file, and a final line end or none
pair_files = st.tuples(
    st.lists(
        st.one_of(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda r: b"%d\t%d" % r),
            st.sampled_from([b"", b"#", b"# note", b"#9\t9"]),
        ),
        max_size=12,
    ),
    st.sampled_from(LINE_ENDS),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else b""))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@contextlib.contextmanager
def _pipe(data):
    """The `/dev/fd` path of a pipe holding `data`, whose writer has closed."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("needs /dev/fd")
    reader, writer = os.pipe()
    os.write(writer, data)
    os.close(writer)
    try:
        yield f"/dev/fd/{reader}"
    finally:
        os.close(reader)


class TestLoadNodes:
    def test_single_record(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "0\tAmsterdam\t0\n")
        assert node_records(load_nodes(path)) == [NodeRecord(0, "Amsterdam", 0)]

    def test_empty_file(self, tmp_path):
        assert node_records(load_nodes(_write(tmp_path, "nodes.tsv", ""))) == []

    def test_non_integer_id_reports_line_1(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "x\tA\t0\n")
        with pytest.raises(ParseError) as err:
            load_nodes(path)
        assert err.value.line == 1

    def test_comments_and_blanks_skipped_line_numbers_physical(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "# header\n\n0\tA\t0\n\nbad line\n")
        with pytest.raises(ParseError) as err:
            load_nodes(path)
        assert err.value.line == 5

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "0\tA\t0\n0\tB\t0\n")
        with pytest.raises(DuplicateNodeId) as err:
            load_nodes(path)
        assert (err.value.line, err.value.path) == (2, str(path))
        assert err.value.reason == "node id 0 already defined on line 1"

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError):
            load_nodes(_write(tmp_path, "nodes.tsv", "0\tA\n"))

    def test_utf8_titles(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "0\tAmsterdam (stad)\t0\n1\tCuraçao\t0\n")
        assert list(load_nodes(path).titles) == ["Amsterdam (stad)", "Curaçao"]


class TestLoadEdges:
    def test_two_edges(self, tmp_path):
        path = _write(tmp_path, "edges.tsv", "0\t1\n1\t0\n")
        edges = load_edges(path)
        assert (edges.dtype, edges.shape) == (np.int64, (2, 2))
        assert edges.tolist() == [[0, 1], [1, 0]]

    def test_big_fixture_matches_line_count(self, tmp_path):
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 500, size=(100_000, 2))
        text = "".join(f"{a}\t{b}\n" for a, b in pairs)
        path = _write(tmp_path, "big.tsv", text)
        edges = load_edges(path)
        assert len(edges) == text.count("\n")
        assert np.array_equal(edges, pairs)


class TestLoadEditLog:
    def test_repeat_edits_kept(self, tmp_path):
        path = _write(tmp_path, "edits.tsv", "7\t12\n7\t12\n")
        assert load_edit_log(path).tolist() == [[7, 12], [7, 12]]

    def test_empty(self, tmp_path):
        assert load_edit_log(_write(tmp_path, "edits.tsv", "")).shape == (0, 2)

    def test_500_lines(self, tmp_path):
        text = "".join(f"{i % 13}\t{i % 37}\n" for i in range(500))
        assert len(load_edit_log(_write(tmp_path, "edits.tsv", text))) == 500


class TestLoadCategoryMap:
    def test_basic(self, tmp_path):
        cm = load_category_map(
            _write(tmp_path, "map.tsv", "5\t2\n"),
            _write(tmp_path, "names.tsv", "2\tphysics\n"),
        )
        assert cm.article_to_categories == {5: frozenset([2])}
        assert cm.category_names == {2: "physics"}

    def test_article_in_two_categories(self, tmp_path):
        cm = load_category_map(
            _write(tmp_path, "map.tsv", "5\t2\n5\t3\n"),
            _write(tmp_path, "names.tsv", "2\ta\n3\tb\n"),
        )
        assert cm.article_to_categories[5] == frozenset([2, 3])

    @pytest.mark.parametrize("end", LINE_ENDS, ids=LINE_END_IDS)
    def test_unnamed_category_at_its_physical_line(self, tmp_path, end):
        path = tmp_path / "map.tsv"
        path.write_bytes(b"# map\n5\t2\n\n6\t3\n".replace(b"\n", end))
        with pytest.raises(UnnamedCategory) as err:
            load_category_map(path, _write(tmp_path, "names.tsv", "2\tsci\n"))
        assert (err.value.line, err.value.path) == (4, str(path))

    def test_unnamed_category_in_a_pipe_at_its_physical_line(self, tmp_path):
        # the map is read once, and its line found in the bytes parsed: a pipe cannot be read again
        with _pipe(b"# map\n5\t2\n6\t3\n") as path, pytest.raises(UnnamedCategory) as err:
            load_category_map(path, _write(tmp_path, "names.tsv", "2\tsci\n"))
        assert (err.value.line, err.value.path) == (3, path)

    def test_duplicate_category_id_names_both_lines(self, tmp_path):
        names = _write(tmp_path, "names.tsv", "5\tfirst\n# again\n5\tsecond\n")
        with pytest.raises(DuplicateCategoryId) as err:
            load_category_map(_write(tmp_path, "map.tsv", "1\t5\n"), names)
        assert (err.value.line, err.value.path) == (3, str(names))
        assert err.value.reason == "category id 5 already named on line 1"

    def test_unnamed_category(self, tmp_path):
        with pytest.raises(UnnamedCategory) as err:
            load_category_map(
                _write(tmp_path, "map.tsv", "5\t2\n"),
                _write(tmp_path, "names.tsv", "3\tother\n"),
            )
        assert err.value.line == 1


class TestFilterMainNamespace:
    def test_drops_other_namespaces_and_their_edges(self):
        nodes = node_table([NodeRecord(0, "A", 0), NodeRecord(1, "Talk:A", 1)])
        kept, edges = filter_main_namespace(nodes, [(0, 1)])
        assert node_records(kept) == [NodeRecord(0, "A", 0)]
        assert edges.shape == (0, 2)

    def test_identity_when_all_main(self):
        records = [NodeRecord(i, f"t{i}", 0) for i in range(4)]
        kept, edges = filter_main_namespace(node_table(records), [(0, 1), (2, 3)])
        assert node_records(kept) == records
        assert edges.tolist() == [[0, 1], [2, 3]]

    def test_matches_two_pass_reference(self):
        nodes = [
            NodeRecord(3, "a", 0),
            NodeRecord(7, "b", 1),
            NodeRecord(9, "c", 0),
            NodeRecord(12, "d", 2),
            NodeRecord(14, "e", 0),
            NodeRecord(20, "f", 0),
        ]
        edges = [(3, 9), (9, 7), (7, 14), (14, 20), (20, 3), (12, 14), (9, 14)]

        # reference: filter ids first, then renumber by sorted order of appearance
        keep_ids = [r.id for r in nodes if r.namespace == 0]
        ref_map = {old: new for new, old in enumerate(keep_ids)}
        ref_edges = [
            [ref_map[s], ref_map[t]] for s, t in edges if s in ref_map and t in ref_map
        ]

        kept, new_edges = filter_main_namespace(node_table(nodes), edges)
        assert new_edges.tolist() == ref_edges
        assert node_records(kept) == [NodeRecord(ref_map[r.id], r.title, 0) for r in nodes if r.namespace == 0]

    def test_idempotent(self):
        nodes = node_table([NodeRecord(2, "a", 0), NodeRecord(5, "b", 3), NodeRecord(8, "c", 0)])
        edges = [(2, 8), (8, 5)]
        kept1, edges1 = filter_main_namespace(nodes, edges)
        kept2, edges2 = filter_main_namespace(kept1, edges1)
        assert node_records(kept2) == node_records(kept1) == [NodeRecord(0, "a", 0), NodeRecord(1, "c", 0)]
        assert np.array_equal(edges2, edges1)

    def test_unknown_node_in_edge(self):
        with pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(node_table([NodeRecord(0, "a", 0)]), [(0, 0), (0, 99)])
        assert err.value.line == 2
        assert str(err.value) == "record 2: edge references unknown node id 99"  # a list has records, not lines

    @pytest.mark.parametrize("end", LINE_ENDS, ids=LINE_END_IDS)
    def test_unknown_node_given_the_path_names_file_and_physical_line(self, tmp_path, end):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"# edges\n0\t1\n\n1\t3\n".replace(b"\n", end))
        nodes = node_table([NodeRecord(0, "a", 0), NodeRecord(1, "b", 0), NodeRecord(5, "c", 1)])
        with pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(nodes, load_edges(path), path=path)
        assert (err.value.line, err.value.path) == (4, str(path))
        assert "unknown node id 3" in str(err.value)

    def test_unknown_node_past_the_files_data_lines_names_its_record_number(self, tmp_path):
        # edges that are not the file's records: the file has fewer data lines than the bad record's number
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"# edges\n0\t0\n")
        with pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(node_table([NodeRecord(0, "a", 0)]), [(0, 0), (0, 99)], path=path)
        assert (err.value.line, err.value.path) == (2, str(path))
        assert str(err.value) == f"{path}: record 2: edge references unknown node id 99"

    def test_unknown_node_given_a_pipe_names_its_record(self):
        nodes = node_table([NodeRecord(0, "a", 0), NodeRecord(1, "b", 0)])
        with _pipe(b"# edges\n0\t1\n\n1\t3\n") as path, pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(nodes, load_edges(path), path=path)
        assert str(err.value) == f"{path}: record 2: edge references unknown node id 3"

    def test_ids_far_apart_need_no_id_sized_table(self):
        big = 2**62
        nodes = node_table([NodeRecord(big, "a", 0), NodeRecord(7, "b", 0), NodeRecord(big + 9, "c", 4)])
        kept, edges = filter_main_namespace(nodes, np.array([[big, 7], [7, big + 9], [7, big]]))
        # big -> 0, 7 -> 1
        assert node_records(kept) == [NodeRecord(0, "a", 0), NodeRecord(1, "b", 0)]
        assert edges.tolist() == [[0, 1], [1, 0]]


class TestUnknownEdgeEndpoint:
    """An edge id missing from the node table exits 3 with `edges.tsv:line`,
    above or below the table's largest id alike."""

    def _run(self, tmp_path, capsys, edges_text):
        from wgm.cli import main

        nodes = _write(tmp_path, "nodes.tsv", "0\tA\t0\n1\tB\t0\n5\tC\t0\n")
        edges = _write(tmp_path, "edges.tsv", edges_text)
        code = main(["degrees", "--nodes", str(nodes), "--edges", str(edges)])
        return code, capsys.readouterr().err, edges

    def test_id_above_the_largest(self, tmp_path, capsys):
        code, err, edges = self._run(tmp_path, capsys, "0\t9\n")
        assert code == 3
        assert err.startswith(f"error: {edges}:1: ") and "unknown node id 9" in err
        assert err.count("\n") == 1

    def test_id_below_the_largest_after_comment_and_blank(self, tmp_path, capsys):
        code, err, edges = self._run(tmp_path, capsys, "# links\n\n0\t3\n")
        assert code == 3
        assert err.startswith(f"error: {edges}:3: ") and "unknown node id 3" in err
        assert err.count("\n") == 1

    def test_load_edges_takes_any_ids(self, tmp_path):
        path = _write(tmp_path, "edges.tsv", "0\t9\n123456789\t0\n")
        assert load_edges(path).tolist() == [[0, 9], [123456789, 0]]


INT64_MAX = 2**63 - 1


class TestInt64Range:
    """Ids and namespaces lie in [-2**63, 2**63); beyond is a parse error at
    path:line, whichever parser reads the file."""

    @pytest.mark.parametrize("loader", [load_edges, load_edit_log])
    def test_largest_id_accepted(self, tmp_path, loader):
        path = _write(tmp_path, "f.tsv", f"{INT64_MAX}\t1\n0\t000000000000000000000000007\n")
        assert loader(path).tolist() == [[INT64_MAX, 1], [0, 7]]

    @pytest.mark.parametrize("value", [str(2**63), "9" * 31, "1" * 5000])
    @pytest.mark.parametrize("column", [0, 1])
    def test_edit_log_id_beyond_int64(self, tmp_path, value, column):
        fields = ["1", "2"]
        fields[column] = value
        path = _write(tmp_path, "edits.tsv", "# log\n1\t2\n" + "\t".join(fields) + "\n")
        with pytest.raises(ParseError) as err:
            load_edit_log(path)
        assert (err.value.line, err.value.path) == (3, str(path))
        assert "int64" in err.value.reason

    @pytest.mark.parametrize(
        ("line", "ok"),
        [
            (f"{INT64_MAX}\tA\t0", True),
            (f"{2**63}\tA\t0", False),
            ("1" * 31 + "\tA\t0", False),
            (f"1\tA\t{-(2**63)}", True),
            (f"1\tA\t{-(2**63) - 1}", False),
            (f"1\tA\t{2**63}", False),
        ],
    )
    def test_node_id_and_namespace(self, tmp_path, line, ok):
        path = _write(tmp_path, "nodes.tsv", "0\tZ\t0\n" + line + "\n")
        if ok:
            assert len(load_nodes(path)) == 2
            return
        with pytest.raises(ParseError) as err:
            load_nodes(path)
        assert (err.value.line, err.value.path) == (2, str(path))

    def test_category_files(self, tmp_path):
        names = _write(tmp_path, "catnames.tsv", f"{2**63}\tbig\n")
        with pytest.raises(ParseError) as err:
            load_category_map(_write(tmp_path, "catmap.tsv", ""), names)
        assert err.value.line == 1
        names = _write(tmp_path, "catnames.tsv", "1\tsmall\n")
        catmap = _write(tmp_path, "catmap.tsv", f"1\t1\n{'9' * 31}\t1\n")
        with pytest.raises(ParseError) as err:
            load_category_map(catmap, names)
        assert (err.value.line, err.value.path) == (2, str(catmap))

    def test_cli_31_digit_author_exits_3(self, tmp_path, capsys):
        from wgm.cli import main

        edits = _write(tmp_path, "edits.tsv", "1\t10\n" + "9" * 31 + "\t10\n")
        catmap = _write(tmp_path, "catmap.tsv", "10\t5\n")
        names = _write(tmp_path, "catnames.tsv", "5\tsci\n")
        code = main(["categories", "--edits", str(edits), "--catmap", str(catmap), "--catnames", str(names)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {edits}:2: ")
        assert err.count("\n") == 1


class TestRoundTrips:
    def test_nodes(self, tmp_path):
        records = [NodeRecord(0, "Amsterdam", 0), NodeRecord(4, "Overleg:X", 1)]
        path = tmp_path / "n.tsv"
        write_nodes(records, path)
        assert node_records(load_nodes(path)) == records

    def test_edges(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 0)]
        path = tmp_path / "e.tsv"
        write_edges(edges, path)
        assert load_edges(path).tolist() == [list(e) for e in edges]

    def test_edit_log(self, tmp_path):
        log = [EditRecord(1, 5), EditRecord(1, 5), EditRecord(0, 2)]
        path = tmp_path / "l.tsv"
        write_edit_log(log, path)
        assert load_edit_log(path).tolist() == [list(r) for r in log]

    def test_category_map(self, tmp_path):
        cm = CategoryMap(
            article_to_categories={1: frozenset([10, 11]), 2: frozenset([10])},
            category_names={10: "science", 11: "sports"},
        )
        write_category_map(cm, tmp_path / "m.tsv", tmp_path / "c.tsv")
        back = load_category_map(tmp_path / "m.tsv", tmp_path / "c.tsv")
        assert back.article_to_categories == cm.article_to_categories
        assert back.category_names == cm.category_names


# the values a writer receives: Python and numpy ints, and bools
cells = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans())
titles = st.one_of(st.sampled_from(["", "Zürich", "Overleg:Σ", "東京 %s"]), st.text(st.characters(exclude_categories=["Cs"])))
int_arrays = hnp.arrays(np.int64, st.tuples(st.integers(0, 20), st.just(2)), elements=st.integers(-(2**63), 2**63 - 1))


class TestWriterBytes:
    """Each writer writes the bytes of its f-string loop in `oracles`."""

    @staticmethod
    def _same(tmp_path_factory, write, reference, rows):
        out = tmp_path_factory.mktemp("w")
        write(rows, out / "a.tsv")
        reference(rows, out / "b.tsv")
        assert (out / "a.tsv").read_bytes() == (out / "b.tsv").read_bytes()

    @given(records=st.lists(st.builds(NodeRecord, cells, titles, cells), max_size=20))
    def test_nodes(self, records, tmp_path_factory):
        self._same(tmp_path_factory, write_nodes, write_nodes_loop, records)

    @given(edges=st.lists(st.tuples(cells, cells), max_size=20))
    def test_edge_tuples(self, edges, tmp_path_factory):
        self._same(tmp_path_factory, write_edges, write_edges_loop, edges)

    @given(log=st.lists(st.builds(EditRecord, cells, cells), max_size=20))
    def test_edit_records(self, log, tmp_path_factory):
        self._same(tmp_path_factory, write_edit_log, write_edit_log_loop, log)

    @given(
        members=st.dictionaries(st.integers(0, 2**63 - 1), st.frozensets(st.integers(0, 9), min_size=1), max_size=8),
        names=st.dictionaries(st.integers(0, 2**63 - 1), titles, max_size=8),
    )
    def test_category_map(self, members, names, tmp_path_factory):
        out = tmp_path_factory.mktemp("w")
        catmap = CategoryMap(article_to_categories=members, category_names=names)
        write_category_map(catmap, out / "m.tsv", out / "c.tsv")
        write_category_map_loop(catmap, out / "m_ref.tsv", out / "c_ref.tsv")
        assert (out / "m.tsv").read_bytes() == (out / "m_ref.tsv").read_bytes()
        assert (out / "c.tsv").read_bytes() == (out / "c_ref.tsv").read_bytes()

    # 3 rows per block splits most drawn arrays into several blocks
    @given(array=int_arrays, block=st.sampled_from([3, wgm.ingest.WRITE_BLOCK]))
    def test_arrays(self, array, block, tmp_path_factory):
        def log_of_records(rows, path):
            write_edit_log_loop(map(EditRecord._make, rows.tolist()), path)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wgm.ingest, "WRITE_BLOCK", block)
            self._same(tmp_path_factory, write_edges, write_edges_loop, array)
            self._same(tmp_path_factory, write_edit_log, log_of_records, array)

    def test_array_rows_as_tuples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wgm.ingest, "WRITE_BLOCK", 3)
        for array in (np.zeros((0, 2), dtype=np.int64), np.arange(20, dtype=np.int64).reshape(10, 2) * 10**17):
            write_edges(array, tmp_path / "a.tsv")
            write_edges(map(tuple, array.tolist()), tmp_path / "b.tsv")
            assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


class TestEncoding:
    @pytest.mark.parametrize("loader", [load_nodes, load_edit_log])
    def test_invalid_utf8_reports_physical_line(self, tmp_path, loader):
        good = b"0\tA\t0\n" if loader is load_nodes else b"0\t1\n"
        bad = b"1\tB\xff\t0\n" if loader is load_nodes else b"1\t\xff\n"
        path = tmp_path / "f.tsv"
        path.write_bytes(b"# header\n\n" + good + bad)
        with pytest.raises(ParseError) as err:
            loader(path)
        assert (err.value.line, err.value.path) == (4, str(path))

    def test_line_found_past_the_decoder_read_ahead(self, tmp_path):
        # the bad byte sits well beyond the first chunk the text reader decodes
        path = tmp_path / "edits.tsv"
        path.write_bytes(b"1\t2\r\n" * 5000 + b"\xe2\x82\n" + b"1\t2\n")
        with pytest.raises(ParseError) as err:
            load_edit_log(path)
        assert err.value.line == 5001

    def test_earlier_format_error_wins(self, tmp_path):
        # both defects are in the first decoded chunk; file order decides
        path = tmp_path / "edits.tsv"
        path.write_bytes(b"1\t2\n1\t2\t3\n\xff\t1\n")
        with pytest.raises(ParseError) as err:
            load_edit_log(path)
        assert err.value.line == 2
        assert "fields" in err.value.reason

    def test_category_names(self, tmp_path):
        names = tmp_path / "catnames.tsv"
        names.write_bytes(b"5\tsci\xc3ence\n")
        catmap = _write(tmp_path, "catmap.tsv", "")
        with pytest.raises(ParseError) as err:
            load_category_map(catmap, names)
        assert err.value.line == 1


NOT_DECIMAL = ["1_0", " +5 ", "+5", " 5", "5 ", "٣", "²", "0x1", "1.0", "", "-", "--1"]


class TestStrictDecimals:
    """Ids and namespaces are ASCII `-?[0-9]+`; what else int() accepts is a parse error."""

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    @pytest.mark.parametrize("column", [0, 2])
    def test_node_table(self, tmp_path, value, column):
        fields = ["1", "B", "0"]
        fields[column] = value
        path = _write(tmp_path, "nodes.tsv", "# nodes\n0\tA\t0\n" + "\t".join(fields) + "\n")
        with pytest.raises(ParseError) as err:
            load_nodes(path)
        assert (err.value.line, err.value.path) == (3, str(path))

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    def test_edit_log_and_category_map(self, tmp_path, value):
        edits = _write(tmp_path, "edits.tsv", f"1\t2\n{value}\t2\n")
        with pytest.raises(ParseError) as err:
            load_edit_log(edits)
        assert err.value.line == 2
        names = _write(tmp_path, "catnames.tsv", f"5\tsci\n{value}\tart\n")
        with pytest.raises(ParseError) as err:
            load_category_map(_write(tmp_path, "catmap.tsv", ""), names)
        assert err.value.line == 2

    def test_negative_namespace_accepted(self, tmp_path):
        path = _write(tmp_path, "nodes.tsv", "0\tSpecial:X\t-1\n1\tA\t-0\n")
        assert load_nodes(path).namespace.tolist() == [-1, 0]

    @pytest.mark.parametrize("value", ["1_0", " +5 ", "٣"])
    def test_cli_exit_3_with_path_and_line(self, tmp_path, capsys, value):
        from wgm.cli import main

        nodes = _write(tmp_path, "nodes.tsv", f"0\tA\t0\n{value}\tB\t0\n")
        edges = _write(tmp_path, "edges.tsv", "")
        assert main(["degrees", "--nodes", str(nodes), "--edges", str(edges)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {nodes}:2: ")
        assert err.count("\n") == 1


class TestLineNumbersAcrossLayouts:
    """An error found after the parse, in the parsed records, names the line
    that the line-by-line oracle gives for that record, in any file layout."""

    @settings(max_examples=150, deadline=None)
    @given(data=pair_files)
    def test_unknown_endpoint(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("layout") / "edges.tsv"
        path.write_bytes(data)
        nodes = node_table([NodeRecord(i, f"t{i}", i % 2) for i in sorted(KNOWN)])
        bad = [n for n, line in data_lines(path) if not {int(f) for f in line.split("\t")} <= KNOWN]
        if not bad:
            filter_main_namespace(nodes, load_edges(path), path=path)
            return
        with pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(nodes, load_edges(path), path=path)
        assert (err.value.line, err.value.path) == (bad[0], str(path))

    @settings(max_examples=150, deadline=None)
    @given(data=pair_files)
    def test_unnamed_category(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("layout") / "catmap.tsv"
        path.write_bytes(data)
        names = _write(path.parent, "catnames.tsv", "".join(f"{c}\tc{c}\n" for c in sorted(KNOWN)))
        bad = [n for n, line in data_lines(path) if int(line.split("\t")[1]) not in KNOWN]
        if not bad:
            load_category_map(path, names)
            return
        with pytest.raises(UnnamedCategory) as err:
            load_category_map(path, names)
        assert (err.value.line, err.value.path) == (bad[0], str(path))
