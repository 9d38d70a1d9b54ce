"""Property-based checks of the library's stated invariants."""

import math

import numpy as np
import pytest
from conftest import node_records as table_records
from conftest import node_table
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import filter_by_dict

from wgm.degrees import DegreeHistogram, classify_authorities, fit_power_law
from wgm.edits import (
    author_entropy,
    build_profiles,
    edits_per_author,
    max_share,
    pareto_share,
    resolve_edits,
    top_k_share,
)
from wgm.graph import build_graph, mean_degree
from wgm.ingest import (
    CategoryMap,
    EditRecord,
    NodeRecord,
    filter_main_namespace,
    load_edit_log,
    load_nodes,
    write_edit_log,
    write_nodes,
)
from wgm.errors import UnknownNodeInEdge
from wgm.structure import local_clustering


edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=0, max_size=120
)


@given(edges=edge_lists)
def test_degree_sums_and_mean_degree(edges):
    g = build_graph(edges, 15)
    assert int(g.indegrees().sum()) == g.edge_count
    assert int(g.outdegrees().sum()) == g.edge_count
    assert abs(mean_degree(g) * g.node_count - 2 * g.edge_count) <= 1e-9 * max(1, 2 * g.edge_count)


@given(edges=edge_lists)
def test_rebuild_from_own_edges_is_identity(edges):
    g = build_graph(edges, 15)
    h = build_graph(g.edges(), 15)
    assert np.array_equal(g.edges(), h.edges())


@given(edges=edge_lists)
def test_local_clustering_in_unit_interval(edges):
    g = build_graph(edges, 15)
    for u in range(15):
        assert 0.0 <= local_clustering(g, u) <= 1.0


@given(edges=edge_lists, percentile=st.floats(0.01, 0.99))
def test_quadrants_partition_nodes(edges, percentile):
    g = build_graph(edges, 15)
    q = classify_authorities(g, percentile)
    assert q.all_round + q.referring + q.guru + q.regular == 15
    assert min(q.all_round, q.referring, q.guru, q.regular) >= 0


@given(edges=edge_lists, lo=st.floats(0.05, 0.9), hi=st.floats(0.05, 0.9))
def test_all_round_count_antitone_in_percentile(edges, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    g = build_graph(edges, 15)
    assert classify_authorities(g, hi).all_round <= classify_authorities(g, lo).all_round


@settings(max_examples=40)
@given(a=st.floats(1.0, 3.5))
def test_fit_recovers_exact_exponent_within_one_percent(a):
    entries = {k: round(1e9 * k**-a) for k in range(1, 51)}
    hist = DegreeHistogram(entries={k: n for k, n in entries.items() if n >= 1}, which="total")
    fit = fit_power_law(hist)
    assert abs(fit.alpha - a) <= 0.01 * a


author_tables = st.dictionaries(
    st.integers(1, 8),
    st.dictionaries(st.integers(0, 5), st.integers(1, 40), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


def log_from_table(table):
    """Build a resolved log from {author: {category: count}}."""
    pairs = []
    for author, cats in table.items():
        for cat, count in cats.items():
            pairs += [(author, cat)] * count
    articles = {c for cats in table.values() for c in cats}
    catmap = CategoryMap(
        article_to_categories={a: frozenset([a]) for a in articles},
        category_names={c: f"c{c}" for c in articles},
    )
    return resolve_edits([EditRecord(a, b) for a, b in pairs], catmap, articles)


@given(table=author_tables)
def test_pareto_share_monotone_and_exhaustive(table):
    log = log_from_table(table)
    for cat in {c for _, c in log.resolved}:
        shares = [pareto_share(log, cat, f, include_anonymous=True) for f in (0.1, 0.3, 0.6, 1.0)]
        assert all(s1 <= s2 + 1e-12 for s1, s2 in zip(shares, shares[1:]))
        assert shares[-1] == 1.0


@given(table=author_tables, k=st.integers(1, 6), fraction=st.floats(0.05, 1.0))
def test_top_k_below_matching_pareto_head(table, k, fraction):
    log = log_from_table(table)
    for cat in {c for _, c in log.resolved}:
        authors = {a for (a, c) in log.resolved if c == cat}
        if k <= math.ceil(fraction * len(authors)):
            lhs = top_k_share(log, cat, k, include_anonymous=True)
            rhs = pareto_share(log, cat, fraction, include_anonymous=True)
            assert lhs <= rhs + 1e-12


@given(table=author_tables, scale=st.integers(2, 7))
def test_count_scaling_invariance(table, scale):
    log1 = log_from_table(table)
    scaled = {a: {c: n * scale for c, n in cats.items()} for a, cats in table.items()}
    log2 = log_from_table(scaled)
    for cat in {c for _, c in log1.resolved}:
        assert pareto_share(log2, cat, 0.25, include_anonymous=True) == pytest.approx(
            pareto_share(log1, cat, 0.25, include_anonymous=True), abs=1e-12
        )
        assert top_k_share(log2, cat, 1, include_anonymous=True) == pytest.approx(
            top_k_share(log1, cat, 1, include_anonymous=True), abs=1e-12
        )
        assert edits_per_author(log2, cat) == pytest.approx(
            scale * edits_per_author(log1, cat), abs=1e-9
        )
    for p1, p2 in zip(build_profiles(log1), build_profiles(log2)):
        assert author_entropy(p2) == pytest.approx(author_entropy(p1), abs=1e-12)
        assert max_share(p2) == pytest.approx(max_share(p1), abs=1e-12)


@given(table=author_tables)
def test_entropy_bounds_and_degeneracy(table):
    log = log_from_table(table)
    n_cats = len({c for _, c in log.resolved})
    for p in build_profiles(log):
        h = author_entropy(p)
        assert -1e-12 <= h <= math.log2(max(n_cats, 2)) + 1e-12
        assert (h == 0.0) == (p.active_categories == 1)
        assert (max_share(p) == 1.0) == (p.active_categories == 1)


node_records = st.lists(
    st.builds(
        NodeRecord,
        id=st.integers(0, 10**6),
        title=st.text(
            alphabet=st.characters(blacklist_characters="\t\n\r#", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=30,
        ),
        namespace=st.integers(0, 15),
    ),
    max_size=25,
    unique_by=lambda r: r.id,
)


@given(records=node_records)
def test_node_parse_serialize_round_trip(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "nodes.tsv"
    write_nodes(records, path)
    assert table_records(load_nodes(path)) == records


@given(
    log=st.lists(
        st.builds(EditRecord, author_id=st.integers(0, 999), article_id=st.integers(0, 999)),
        max_size=60,
    )
)
def test_edit_log_round_trip(log, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "edits.tsv"
    write_edit_log(log, path)
    assert load_edit_log(path).tolist() == [list(r) for r in log]


@given(records=node_records, data=st.data())
def test_filter_main_namespace_matches_dict_reference(records, data):
    ids = [r.id for r in records]
    # mostly known ids, now and then one the table does not hold
    endpoint = st.sampled_from(ids) | st.integers(0, 10**6) if ids else st.integers(0, 10**6)
    edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=40))
    expected = filter_by_dict(records, edges)
    if expected[0] == "unknown":
        with pytest.raises(UnknownNodeInEdge) as err:
            filter_main_namespace(node_table(records), edges)
        assert (err.value.line, err.value.reason) == (expected[1], f"edge references unknown node id {expected[2]}")
        return
    kept, new_edges = filter_main_namespace(node_table(records), edges)
    assert table_records(kept) == [NodeRecord(i, r.title, 0) for i, r in enumerate(expected[0])]
    assert new_edges.reshape(-1, 2).tolist() == expected[1]


@given(records=node_records, data=st.data())
def test_filter_main_namespace_idempotent(records, data):
    ids = [r.id for r in records]
    if ids:
        edges = data.draw(
            st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40)
        )
    else:
        edges = []
    kept1, edges1 = filter_main_namespace(node_table(records), edges)
    kept2, edges2 = filter_main_namespace(kept1, edges1)
    assert table_records(kept2) == table_records(kept1)
    assert kept1.id.tolist() == list(range(len(kept1)))
    assert np.array_equal(edges2, edges1)
