"""The columnar edit analytics and the array TSV parsers against references.

The references are the dict- and line-based algorithms the columnar code
replaced, kept here verbatim in spirit: a dict of (author, category)
counts scanned once per category, a dict of category sets per article,
and the per-line parse `oracles.scan`. Results must be equal to the last
bit, which the JSON bytes of `render` make visible (-0.0 included).
"""

import math
import sys

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import scan

from wgm.cli import render
from wgm.edits import (
    ANONYMOUS_AUTHOR,
    CategoryStats,
    EntropyReport,
    active_category_histogram,
    category_report,
    category_stats,
    edits_per_author,
    entropy_histogram,
    entropy_report,
    max_share_histogram,
    pareto_share,
    resolve_edits,
    top_k_share,
)
from wgm.errors import EmptyCategory, ParseError
from wgm.ingest import (
    DUPLICATE_CATEGORY,
    DUPLICATE_NODE,
    EDGE_COLUMNS,
    EDIT_COLUMNS,
    INT64_MAX,
    INT64_MIN,
    NAME_COLUMNS,
    NODE_COLUMNS,
    CategoryMap,
    NodeTable,
    _parse,
    _signed,
    load_category_map,
    load_edges,
    load_edit_log,
    load_nodes,
)


# --- dict-based reference of the edit analytics -------------------------------


def ref_resolve(records, article_to_categories, selected):
    resolved = {}
    for author, article in records:
        for cat in article_to_categories.get(article, frozenset()) & selected:
            resolved[(author, cat)] = resolved.get((author, cat), 0) + 1
    return resolved


def ref_ranked(resolved, category, include_anonymous):
    counts = [
        (author, count)
        for (author, cat), count in resolved.items()
        if cat == category and (include_anonymous or author != ANONYMOUS_AUTHOR)
    ]
    if not counts:
        raise EmptyCategory(f"category {category} has no edits")
    counts.sort(key=lambda ac: (-ac[1], ac[0]))
    return counts


def ref_category_report(resolved, top_fraction, include_anonymous):
    report = []
    for cat in sorted({c for _, c in resolved}):
        every = ref_ranked(resolved, cat, True)
        try:
            ranked = ref_ranked(resolved, cat, include_anonymous)
        except EmptyCategory:
            continue
        n_edits = sum(c for _, c in every)
        head = math.ceil(top_fraction * len(ranked))
        total = sum(c for _, c in ranked)
        report.append(
            CategoryStats(
                cat,
                n_edits,
                len(every),
                n_edits / len(every),
                sum(c for _, c in ranked[:head]) / total,
                ranked[0][1] / total,
            )
        )
    return report


def ref_profiles(resolved):
    by_author = {}
    for (author, cat), count in resolved.items():
        by_author.setdefault(author, {})[cat] = count
    return sorted(by_author.items())


def ref_entropy_report(resolved):
    entries = []
    for author, cats in ref_profiles(resolved):
        total = sum(cats.values())
        entries.append((author, -math.fsum((c / total) * math.log2(c / total) for c in cats.values() if c > 0)))
    values = [h for _, h in entries]
    return EntropyReport(tuple(entries), min(values), max(values), math.fsum(values) / len(values))


def ref_bins(values, bin_width):
    n_bins = max(1, math.floor(max(values) / bin_width) + 1)
    counts = [0] * n_bins
    for v in values:
        counts[min(int(v / bin_width), n_bins - 1)] += 1
    return [(i * bin_width, (i + 1) * bin_width, c) for i, c in enumerate(counts)]


def ref_active(resolved):
    active = {}
    for author, _ in resolved:
        active[author] = active.get(author, 0) + 1
    hist = {}
    for n in active.values():
        hist[n] = hist.get(n, 0) + 1
    return hist


def assert_plain_numbers(value):
    """Every number is a Python int or float: `render` rejects np.int64,
    which is no int subclass, and a result holds no numpy scalar."""
    if isinstance(value, (list, tuple)):
        for item in value:
            assert_plain_numbers(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_plain_numbers(key)
            assert_plain_numbers(item)
    elif hasattr(value, "__dataclass_fields__"):
        assert_plain_numbers(list(vars(value).values()))
    elif not isinstance(value, str):
        assert type(value) in (int, float), (type(value), value)


# small id ranges force ties, shared articles and repeat edits; author 0 is
# the anonymous aggregate; runs of repeats vary the shares an entropy sums
edit_logs = st.fixed_dictionaries(
    {
        "records": st.lists(
            st.tuples(st.one_of(st.just(ANONYMOUS_AUTHOR), st.integers(0, 12)), st.integers(0, 19), st.integers(1, 60)),
            max_size=60,
        ).map(lambda runs: [(a, b) for a, b, n in runs for _ in range(n)]),
        "membership": st.dictionaries(
            st.integers(0, 21), st.frozensets(st.integers(0, 10), min_size=1, max_size=4), max_size=20
        ),
        "selected": st.frozensets(st.integers(0, 11), min_size=1),
    }
)


def columnar_and_reference(log_data):
    catmap = CategoryMap(
        article_to_categories=log_data["membership"],
        category_names={c: f"c{c}" for c in range(12)},
    )
    log = resolve_edits(log_data["records"], catmap, log_data["selected"])
    ref = ref_resolve(log_data["records"], log_data["membership"], log_data["selected"])
    return log, ref


@settings(max_examples=300, deadline=None)
@given(
    log_data=edit_logs,
    top_fraction=st.sampled_from([0.01, 0.2, 1 / 3, 0.5, 0.99, 1.0]),
    include_anonymous=st.booleans(),
)
def test_category_report_matches_dict_reference(log_data, top_fraction, include_anonymous):
    log, ref = columnar_and_reference(log_data)
    assert log.resolved == ref
    got = category_report(log, top_fraction, include_anonymous)
    expected = ref_category_report(ref, top_fraction, include_anonymous)
    assert render(got) == render(expected)
    assert_plain_numbers(got)


@settings(max_examples=100, deadline=None)
@given(log_data=edit_logs, top_fraction=st.sampled_from([0.01, 0.2, 1 / 3, 0.5, 1.0]))
def test_single_category_calls_match_their_report_row(log_data, top_fraction):
    log, _ = columnar_and_reference(log_data)
    for include_anonymous in (False, True):
        rows = {row.category_id: row for row in category_report(log, top_fraction, include_anonymous)}
        for category in range(12):
            calls = (
                (category_stats, (log, category, top_fraction, include_anonymous), lambda row: row),
                (pareto_share, (log, category, top_fraction, include_anonymous), lambda row: row.top_fraction_share),
                (top_k_share, (log, category, 1, include_anonymous), lambda row: row.top1_share),
                *([(edits_per_author, (log, category), lambda row: row.ea_bar)] if include_anonymous else []),
            )
            for call, args, field in calls:
                if category in rows:
                    assert render(call(*args)) == render(field(rows[category])), call.__name__
                else:
                    with pytest.raises(EmptyCategory):
                        call(*args)


@settings(max_examples=300, deadline=None)
@given(log_data=edit_logs, bin_width=st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 1.0]))
def test_entropy_side_matches_dict_reference(log_data, bin_width):
    log, ref = columnar_and_reference(log_data)
    if not ref:
        return
    report = entropy_report(log)
    expected = ref_entropy_report(ref)
    assert render(report) == render(expected)
    hist = entropy_histogram(report, bin_width)
    assert render(hist) == render(ref_bins([h for _, h in expected.entries], bin_width))
    max_shares = [max(cats.values()) / sum(cats.values()) for _, cats in ref_profiles(ref)]
    shares = max_share_histogram(log, bin_width)
    assert render(shares) == render(ref_bins(max_shares, bin_width))
    active = active_category_histogram(log)
    assert active == ref_active(ref)
    assert log.active_categories(ANONYMOUS_AUTHOR) == sum(1 for a, _ in ref if a == ANONYMOUS_AUTHOR)
    assert_plain_numbers([report, hist, shares, active])


# --- the array parser against the line scan ----------------------------------


def parse_ints(data, path, columns=EDIT_COLUMNS):
    return _parse(data, columns, None, str(path))[0]


def scan_ints(path, columns=EDIT_COLUMNS):
    return scan(path, columns)[0]


# fields that take the sign and zero-padding steps of the decode, or pass int64
PADDED_AND_SIGNED = [b"-0000000000000000000000", b"-00000000000000000000001", b"0000000000000000009223372036854775808",
                     b"-09223372036854775808", b"10000000000000000000"]
# pieces a field can be made of: plain ids, and the fields the array parser
# must decode or reject as the line scan does (signs, padding, 19+ digits,
# blanks, CR, comments, non-UTF-8 bytes)
field_pieces = st.one_of(
    st.integers(0, 10**18 - 1).map(lambda n: str(n).encode()),
    st.integers(0, 2**64).map(lambda n: str(n).encode()),
    st.integers(19, 40).map(lambda k: b"9" * k),
    st.sampled_from(
        [b"", b"0", b"007", b"-1", b"-0", b"+1", b" 1", b"1 ", b"#", b"\r", b"\xff", b"\xc3\xa9", b"\xe2\x82",
         b"000000000000000000001", b"9223372036854775807", b"9223372036854775808", b"1_0", b"\x00", b"\x0c"]
        + PADDED_AND_SIGNED
    ),
)
raw_lines = st.one_of(
    st.lists(field_pieces, min_size=1, max_size=3).map(b"\t".join),
    st.sampled_from([b"", b"# comment", b"#", b"# caf\xc3\xa9", b"# \xff", b"\t", b" "]),
)
raw_files = st.tuples(
    st.lists(raw_lines, max_size=12),
    st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else b""))

clean_rows = st.lists(st.tuples(st.integers(0, 10**18 - 1), st.integers(0, 10**6)), max_size=30)


def outcome(parse):
    try:
        table = parse()
    except ParseError as err:
        return ("error", type(err), err.line, err.path, str(err))
    assert table.dtype.name == "int64" and table.ndim == 2 and table.shape[1] == 2
    return ("ok", table.tolist())


@settings(max_examples=400, deadline=None)
@given(data=raw_files)
@example(data=b"1\t2\n3\t\xe2\x82\n\xac4\t5\n")  # a UTF-8 sequence cut by a newline
@example(data=b"1\t2\n# caf\xff\n3\t4\n")  # invalid UTF-8 in a comment line
@example(data=b"1\t2\r3\t4\r\n5\t6\n")
@example(data=b"x\t1\n1\t\xff\n")  # a field error, then invalid UTF-8
@example(data=b"1\t\xff\nx\t1\n")
@example(data=b"x\t\xff\n")
@example(data=b"-0\t-0\n-007\t2\n")
@example(data=b"1\t" + b"1" * 5000 + b"\n")  # int() refuses 4,300+ digits
@example(data=b"000000000000000000001\t2\n9223372036854775807\t-0\n")
@example(data=b"\xef\xbb\xbf1\t2\n")  # a UTF-8 BOM is part of the first field
@example(data=b"00000000000000000000001\t00000000000000000000002\n3\t0000000000000000000004\n")  # flagged in both columns, then in one
def test_array_parser_agrees_with_line_scan(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("parse") / "edits.tsv"
    path.write_bytes(data)
    scanned = outcome(lambda: scan_ints(path))
    assert outcome(lambda: parse_ints(data, path)) == scanned
    assert outcome(lambda: load_edit_log(path)) == scanned
    assert outcome(lambda: load_edges(path)) == outcome(lambda: scan_ints(path, EDGE_COLUMNS))


@settings(max_examples=200, deadline=None)
@given(
    rows=clean_rows,
    comments=st.lists(st.integers(0, 30), max_size=4),
    blanks=st.lists(st.integers(0, 30), max_size=4),
    final_newline=st.booleans(),
)
def test_array_parser_takes_well_formed_files(rows, comments, blanks, final_newline, tmp_path_factory):
    lines = [f"{a}\t{b}".encode() for a, b in rows]
    for at in sorted(comments, reverse=True):
        lines.insert(min(at, len(lines)), b"# note\t1")
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), b"")
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    path = tmp_path_factory.mktemp("parse") / "edits.tsv"
    path.write_bytes(data)
    fast = parse_ints(data, path)
    assert fast.tolist() == [list(r) for r in rows]
    assert scan_ints(path).tolist() == fast.tolist()


# --- the node table: array parser against the line scan ----------------------

id_pieces = st.one_of(
    st.integers(0, 6).map(lambda n: str(n).encode()),  # a small pool, so ids repeat
    st.integers(0, 10**18 - 1).map(lambda n: str(n).encode()),
    st.integers(0, 2**64).map(lambda n: str(n).encode()),
    st.sampled_from(
        [b"1" * 18, b"1" * 19, b"9223372036854775807", b"9223372036854775808", b"9" * 25, b"007",
         b"000000000000000000003", b"-0", b"-1", b"+1", b"", b" 1", b"\xd9\xa3"] + PADDED_AND_SIGNED
    ),
)
title_pieces = st.one_of(
    st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=6).map(str.encode),
    st.sampled_from(
        [b"", b"#", b"C# (language)", b"Cura\xc3\xa7ao", b"\xe6\x9d\xb1\xe4\xba\xac", b"\xf0\x9f\xa6\x89 Owl",
         b"\xff", b"\xc3", b"\xe2\x82", b"a\rb", b"\x00", b"\x0c", b"\xe2\x80\xa8", b"\xef\xbb\xbf"]
    ),
)
namespace_pieces = st.one_of(
    st.integers(0, 15).map(lambda n: str(n).encode()),
    st.sampled_from(
        [b"-1", b"-0", b"-14", b"007", b"-9223372036854775808", b"-9223372036854775809", b"9223372036854775808",
         b"1" * 19, b"", b"1.0", b"+2"] + PADDED_AND_SIGNED
    ),
)
node_rows = st.one_of(
    st.tuples(id_pieces, title_pieces, namespace_pieces).map(b"\t".join),
    st.tuples(id_pieces, title_pieces, namespace_pieces).map(b"\t".join),
    st.tuples(id_pieces, title_pieces).map(b"\t".join),
    st.tuples(id_pieces, title_pieces, title_pieces, namespace_pieces).map(b"\t".join),
)
node_lines = st.one_of(node_rows, st.sampled_from([b"", b"# comment", b"#1\tA\t0", b"# caf\xc3\xa9", b"# \xff", b" "]))
node_files = st.tuples(
    st.booleans(),
    st.lists(node_lines, max_size=10),
    st.booleans(),
    st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"]),
    st.booleans(),
).map(lambda t: t[3].join(([b"# first"] if t[0] else []) + t[1] + ([b"# last"] if t[2] else [])) + (t[3] if t[4] else b""))


def as_node_table(parsed):
    values, (titles,) = parsed
    return NodeTable(values[:, 0], values[:, 1], titles)


def parse_nodes(data, path):
    return as_node_table(_parse(data, NODE_COLUMNS, DUPLICATE_NODE, str(path)))


def scan_nodes(path):
    return as_node_table(scan(path, NODE_COLUMNS, DUPLICATE_NODE))


def node_outcome(parse):
    try:
        table = parse()
    except ParseError as err:
        return ("error", type(err), err.line, err.path, str(err))
    assert table.id.dtype.name == table.namespace.dtype.name == "int64"
    return ("ok", table.id.tolist(), table.namespace.tolist(), list(table.titles))


@settings(max_examples=500, deadline=None)
@given(data=node_files)
@example(data=b"0\tCura\xc3\n\xa7ao\t0\n")  # a UTF-8 sequence cut by a newline
@example(data=b"0\tA\t0\n# caf\xff\n1\tB\t0\n")  # invalid UTF-8 in a comment line
@example(data=b"0\tA\rB\t0\n")  # a lone CR inside a title ends the line
@example(data=b"0\tA\t0\n0\tB\t0\nx\tC\t0\n")  # a duplicate, then a bad row
@example(data=b"0\tA\t0\nx\tB\t0\n0\tC\t0\n")  # a bad row, then a duplicate
@example(data=b"x\tA\t0\n1\t\xff\t0\n")  # a field error, then invalid UTF-8
@example(data=b"1\t\xff\t0\nx\tA\t0\n")
@example(data=b"x\t\xff\t0\n")
@example(data=b"-0\tA\t0\n-007\tB\t0\n")
@example(data=b"0\tA\t" + b"1" * 5000 + b"\n")  # int() refuses 4,300+ digits
@example(data=b"0\tA\t-9223372036854775808\n1\tB\t-9223372036854775809\n")
@example(data=b"000000000000000000001\tA\t-0\n1\tB\t0\n")
@example(data=b"\xef\xbb\xbf0\tA\t0\n")  # a UTF-8 BOM is part of the first field
def test_node_parser_agrees_with_line_scan(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("parse") / "nodes.tsv"
    path.write_bytes(data)
    scanned = node_outcome(lambda: scan_nodes(path))
    assert node_outcome(lambda: parse_nodes(data, path)) == scanned
    assert node_outcome(lambda: load_nodes(path)) == scanned


clean_titles = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**18 - 1), clean_titles, st.integers(0, 10**6)), max_size=30, unique_by=lambda r: r[0]
    ),
    comments=st.lists(st.integers(0, 30), max_size=4),
    blanks=st.lists(st.integers(0, 30), max_size=4),
    final_newline=st.booleans(),
)
def test_node_parser_takes_well_formed_files(rows, comments, blanks, final_newline, tmp_path_factory):
    lines = [f"{i}\t{title}\t{ns}".encode() for i, title, ns in rows]
    for at in sorted(comments, reverse=True):
        lines.insert(min(at, len(lines)), b"# note\t1\t0")
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), b"")
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    path = tmp_path_factory.mktemp("parse") / "nodes.tsv"
    path.write_bytes(data)
    fast = parse_nodes(data, path)
    assert node_outcome(lambda: fast) == ("ok", [r[0] for r in rows], [r[2] for r in rows], [r[1] for r in rows])
    assert node_outcome(lambda: scan_nodes(path)) == node_outcome(lambda: fast)


# --- valid input: numpy decodes every field, no field parser runs ------------


def signed_calls(parse):
    """`parse()` and the number of calls it made to `wgm.ingest._signed`, which
    `_unsigned` calls too."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is _signed.__code__

    sys.setprofile(count)
    try:
        result = parse()
    finally:
        sys.setprofile(None)
    return result, calls


# files whose every numeric field is valid and has 19 digits, a sign or
# zero padding to 25 bytes
ODD_EDITS = b"".join(
    [
        b"9223372036854775807\t-0\n",
        b"-0000000000000000000000\t1000000000000000000\n",
        b"42".rjust(25, b"0") + b"\t" + b"7".rjust(25, b"0") + b"\n",
        b"1234567890123456789\t0009223372036854775807\n",
    ]
)
ODD_NODES = b"".join(
    [
        b"9223372036854775807\tA\t-9223372036854775808\n",
        b"-0\tB\t-0000000000000000000000014\n",
        b"42".rjust(25, b"0") + b"\tC\t1234567890123456789\n",
        b"1000000000000000000\tD\t-0009223372036854775807\n",
    ]
)


@pytest.mark.parametrize(
    "data, columns, duplicate",
    [(ODD_EDITS, EDIT_COLUMNS, None), (ODD_NODES, NODE_COLUMNS, DUPLICATE_NODE)],
    ids=["edits", "nodes"],
)
def test_valid_fields_decode_without_the_field_parsers(data, columns, duplicate, tmp_path):
    path = tmp_path / "table.tsv"
    path.write_bytes(data)
    parsed, calls = signed_calls(lambda: table_outcome(lambda: _parse(data, columns, duplicate, str(path))))
    assert parsed[0] == "ok" and parsed == table_outcome(lambda: scan(path, columns, duplicate))
    assert calls == 0


def test_a_rejected_row_that_the_field_parsers_accept_is_a_bug(monkeypatch):
    monkeypatch.setattr("wgm.ingest._numbers", lambda buf, ends, widths, parse: (ends.astype(np.int64), 1))
    with pytest.raises(AssertionError, match="line 3 of edits.tsv"):
        _parse(b"1\t2\n# note\n3\t4\n", EDIT_COLUMNS, None, "edits.tsv")


def spelled(value, zeros, minus):
    """`value` in decimal with `zeros` zeros after its sign; a 0 with a `-` if `minus`."""
    return ("-" if value < 0 or minus and value == 0 else "") + "0" * zeros + str(abs(value))


valid_ids = st.builds(spelled, st.integers(0, 9) | st.integers(0, INT64_MAX), st.integers(0, 30), st.booleans())
valid_namespaces = st.builds(
    spelled, st.integers(-9, 9) | st.integers(INT64_MIN, INT64_MAX), st.integers(0, 30), st.booleans()
)


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(st.tuples(valid_ids, valid_ids), max_size=20),
    nodes=st.lists(st.tuples(valid_ids, clean_titles, valid_namespaces), max_size=20, unique_by=lambda r: int(r[0])),
)
def test_valid_files_never_reach_the_field_parsers(edits, nodes, tmp_path_factory):
    for rows, columns, duplicate in [(edits, EDIT_COLUMNS, None), (nodes, NODE_COLUMNS, DUPLICATE_NODE)]:
        data = "".join("\t".join(row) + "\n" for row in rows).encode()
        path = tmp_path_factory.mktemp("parse") / "table.tsv"
        path.write_bytes(data)
        parsed, calls = signed_calls(lambda: table_outcome(lambda: _parse(data, columns, duplicate, str(path))))
        assert parsed == table_outcome(lambda: scan(path, columns, duplicate))
        assert parsed[0] == "ok" and calls == 0


# --- the category names: array parser against the line scan -----------------

name_ids = st.one_of(st.integers(0, 3).map(lambda n: str(n).encode()), id_pieces)  # repeats are common
name_rows = st.one_of(
    st.tuples(name_ids, title_pieces).map(b"\t".join),
    st.tuples(name_ids, title_pieces).map(b"\t".join),
    st.tuples(name_ids).map(b"\t".join),
    st.tuples(name_ids, title_pieces, title_pieces).map(b"\t".join),
)
name_files = st.tuples(
    st.lists(st.one_of(name_rows, st.sampled_from([b"", b"# comment", b"#1\tA", b"# \xff", b" "])), max_size=10),
    st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else b""))


def table_outcome(parse):
    """A parse's columns, or its error with class, line and path."""
    try:
        values, texts = parse()
    except ParseError as err:
        return ("error", type(err), err.line, err.path, str(err))
    assert values.dtype.name == "int64" and values.ndim == 2
    return ("ok", values.tolist(), [list(t) for t in texts])


def names_outcome(load):
    try:
        return ("ok", list(load().category_names.items()))
    except ParseError as err:
        return ("error", type(err), err.line, err.path, str(err))


@settings(max_examples=400, deadline=None)
@given(data=name_files)
@example(data=b"1\tcaf\xc3\n\xa9\n")  # a UTF-8 sequence cut by a newline
@example(data=b"1\ta\n# \xff\n2\tb\n")  # invalid UTF-8 in a comment line
@example(data=b"1\tsci\rence\n")  # a lone CR inside a name ends the line
@example(data=b"1\ta\n1\tb\nx\tc\n")  # a duplicate, then a bad row
@example(data=b"1\ta\nx\tb\n1\tc\n")  # a bad row, then a duplicate
@example(data=b"x\ta\n1\t\xff\n")  # a field error, then invalid UTF-8
@example(data=b"1\t\xff\nx\ta\n")
@example(data=b"x\t\xff\n")
@example(data=b"-0\ta\n0\tb\n")
@example(data=b"-007\ta\n")
@example(data=b"1" * 5000 + b"\tbig\n")  # int() refuses 4,300+ digits
@example(data=b"000000000000000000001\ta\n")
@example(data=b"\xef\xbb\xbf1\ta\n")  # a UTF-8 BOM is part of the first field
def test_names_parser_agrees_with_line_scan(data, tmp_path_factory):
    d = tmp_path_factory.mktemp("parse")
    (d / "catnames.tsv").write_bytes(data)
    (d / "catmap.tsv").write_bytes(b"")
    scanned = table_outcome(lambda: scan(d / "catnames.tsv", NAME_COLUMNS, DUPLICATE_CATEGORY))
    assert table_outcome(lambda: _parse(data, NAME_COLUMNS, DUPLICATE_CATEGORY, str(d / "catnames.tsv"))) == scanned
    expected = scanned
    if scanned[0] == "ok":
        expected = ("ok", [(cat_id, name) for (cat_id,), name in zip(scanned[1], scanned[2][0])])
    assert names_outcome(lambda: load_category_map(d / "catmap.tsv", d / "catnames.tsv")) == expected


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 10**18 - 1), clean_titles), max_size=30, unique_by=lambda r: r[0]),
    comments=st.lists(st.integers(0, 30), max_size=4),
    blanks=st.lists(st.integers(0, 30), max_size=4),
    final_newline=st.booleans(),
)
def test_names_parser_takes_well_formed_files(rows, comments, blanks, final_newline, tmp_path_factory):
    lines = [f"{i}\t{name}".encode() for i, name in rows]
    for at in sorted(comments, reverse=True):
        lines.insert(min(at, len(lines)), b"# note\tname")
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), b"")
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    d = tmp_path_factory.mktemp("parse")
    (d / "catnames.tsv").write_bytes(data)
    (d / "catmap.tsv").write_bytes(b"")
    fast = table_outcome(lambda: _parse(data, NAME_COLUMNS, DUPLICATE_CATEGORY, str(d / "catnames.tsv")))
    assert fast == ("ok", [[i] for i, _ in rows], [[name for _, name in rows]])
    assert table_outcome(lambda: scan(d / "catnames.tsv", NAME_COLUMNS, DUPLICATE_CATEGORY)) == fast
    assert load_category_map(d / "catmap.tsv", d / "catnames.tsv").category_names == dict(rows)


# --- the category map: sorted distinct columns against a dict of sets ---------


def ref_category_columns(pairs):
    members = {}
    for article, cat in pairs:
        members.setdefault(article, set()).add(cat)
    rows = sorted((a, c) for a, cats in members.items() for c in cats)
    return [a for a, _ in rows], [c for _, c in rows], {a: frozenset(cats) for a, cats in members.items()}


category_ids = st.one_of(st.integers(0, 8), st.integers(0, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(category_ids, st.sampled_from([0, 3, 7, 2**63 - 1])), max_size=40))
def test_category_columns_match_dict_reference(pairs, tmp_path_factory):
    articles, categories, members = ref_category_columns(pairs)
    names = {0: "zero", 3: "three", 7: "seven", 2**63 - 1: "last"}
    d = tmp_path_factory.mktemp("catmap")
    (d / "catmap.tsv").write_text("".join(f"{a}\t{c}\n" for a, c in pairs), encoding="utf-8")
    (d / "catnames.tsv").write_text("".join(f"{c}\t{n}\n" for c, n in names.items()), encoding="utf-8")
    for catmap in (
        load_category_map(d / "catmap.tsv", d / "catnames.tsv"),
        CategoryMap(article_to_categories=members, category_names=names),
        CategoryMap(category_names=names, pairs=np.array(pairs, dtype=np.int64)),
    ):
        assert (catmap.article.tolist(), catmap.category.tolist()) == (articles, categories)
        assert catmap.article.dtype.name == catmap.category.dtype.name == "int64"
        assert catmap.article_to_categories == members


def test_large_log_matches_dict_reference_to_the_last_bit():
    # numpy's log2 and summation differ from math.log2 and math.fsum in a few
    # results per ten thousand; tens of thousands of distinct shares expose that
    import numpy as np

    from wgm.edits import EditLog

    rng = np.random.default_rng(5)
    author = np.repeat(np.arange(12_000), 5)
    category = np.tile(np.arange(5), 12_000)
    count = rng.integers(1, 100_000, author.size)
    keep = rng.random(author.size) < 0.8
    log = EditLog(author[keep], category[keep], count[keep])
    ref = dict(zip(zip(author[keep].tolist(), category[keep].tolist()), count[keep].tolist()))
    assert render(entropy_report(log)) == render(ref_entropy_report(ref))
    assert render(category_report(log, 0.2)) == render(ref_category_report(ref, 0.2, False))
    max_shares = [max(cats.values()) / sum(cats.values()) for _, cats in ref_profiles(ref)]
    assert render(max_share_histogram(log, 0.001)) == render(ref_bins(max_shares, 0.001))
