import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgm.errors import EmptyGraph, EndpointOutOfRange, NodeOutOfRange
from wgm.graph import build_graph, degree_of, mean_degree

from conftest import distinct_random_edges, random_edge_list, seeded_graph
from oracles import degrees_by_edge_scan


def test_empty_edge_list_gives_isolated_nodes():
    g = build_graph([], 3)
    assert g.node_count == 3
    assert g.edge_count == 0


def test_duplicates_and_self_loops_dropped():
    g = build_graph([(0, 1), (0, 1), (1, 1)], 2)
    assert g.edge_count == 1
    assert g.dropped_self_loops == 1
    assert g.dropped_duplicates == 1


def test_cycle_degrees(cycle3):
    for node in range(3):
        d = degree_of(cycle3, node)
        assert (d.indegree, d.outdegree, d.degree) == (1, 1, 2)


def test_star_center_degree(star6):
    d = degree_of(star6, 0)
    assert (d.indegree, d.outdegree, d.degree) == (0, 5, 5)


def test_degree_of_matches_edge_scan_oracle():
    edges = random_edge_list(10, 30, seed=11)
    g = build_graph(edges, 10)
    dedup = {(a, b) for a, b in edges if a != b}
    indeg, outdeg = degrees_by_edge_scan(dedup, 10)
    for node in range(10):
        d = degree_of(g, node)
        assert d.indegree == indeg[node]
        assert d.outdegree == outdeg[node]


def test_mean_degree_cycle(cycle3):
    assert mean_degree(cycle3) == 2.0


def test_mean_degree_exact_on_250_edges():
    g = seeded_graph(100, 250, seed=5)
    assert g.edge_count == 250
    assert mean_degree(g) == 5.0
    assert sum(degree_of(g, u).degree for u in range(100)) == 2 * 250


def test_endpoint_out_of_range():
    with pytest.raises(EndpointOutOfRange):
        build_graph([(0, 3)], 3)
    with pytest.raises(EndpointOutOfRange):
        build_graph([(-1, 0)], 3)


def test_node_out_of_range(cycle3):
    with pytest.raises(NodeOutOfRange):
        degree_of(cycle3, 3)
    with pytest.raises(NodeOutOfRange):
        cycle3.out_neighbors(-1)


def test_mean_degree_empty_graph():
    with pytest.raises(EmptyGraph):
        mean_degree(build_graph([], 0))


def test_degree_sums_equal_edge_count():
    g = build_graph(random_edge_list(30, 120, seed=2), 30)
    assert int(g.indegrees().sum()) == g.edge_count
    assert int(g.outdegrees().sum()) == g.edge_count


def test_round_trip_through_edge_enumeration():
    g = build_graph(random_edge_list(20, 70, seed=3), 20)
    h = build_graph(g.edges(), 20)
    assert h.edge_count == g.edge_count
    assert np.array_equal(h.edges(), g.edges())
    for u in range(20):
        assert np.array_equal(h.in_neighbors(u), g.in_neighbors(u))


def test_out_and_in_adjacency_agree():
    g = build_graph(random_edge_list(25, 90, seed=6), 25)
    for u in range(25):
        for v in g.out_neighbors(u):
            assert u in g.in_neighbors(int(v))
        for v in g.in_neighbors(u):
            assert u in g.out_neighbors(int(v))


def test_adjacency_is_sorted():
    g = build_graph(distinct_random_edges(25, 90, seed=4), 25)
    for u in range(25):
        out = g.out_neighbors(u)
        assert np.array_equal(out, np.sort(out))
        inn = g.in_neighbors(u)
        assert np.array_equal(inn, np.sort(inn))


def test_titles_must_match_node_count():
    with pytest.raises(EndpointOutOfRange):
        build_graph([], 2, titles=["only one"])


ADJACENCY_ARRAYS = {
    "out_neighbors": lambda g: g.out_neighbors(0),
    "in_neighbors": lambda g: g.in_neighbors(0),
    "undirected_neighbors": lambda g: g.undirected_neighbors(0),
    **{
        f"{csr}[{i}]": lambda g, csr=csr, i=i: getattr(g, csr)()[i]
        for csr in ("directed_csr", "in_csr", "undirected_csr")
        for i in (0, 1)
    },
}


@pytest.mark.parametrize("accessor", ADJACENCY_ARRAYS.values(), ids=ADJACENCY_ARRAYS.keys())
def test_adjacency_arrays_immutable(cycle3, accessor):
    array = accessor(cycle3)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 99


def reference_csr(edges, n):
    """The CSR arrays and dropped counts as built by lexicographic row
    dedup: out-CSR, in-CSR (rows sorted by target, then source), the
    undirected projection, self-loops and duplicates dropped."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = arr[:, 0] == arr[:, 1]
    arr = arr[~loops]
    unique = np.unique(arr, axis=0)

    def csr(rows, cols):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, cols.astype(np.int64)

    reverse = unique[np.lexsort((unique[:, 0], unique[:, 1]))]
    both = np.unique(np.concatenate([unique, unique[:, ::-1]]), axis=0)
    return (
        csr(unique[:, 0], unique[:, 1]),
        csr(reverse[:, 1], reverse[:, 0]),
        csr(both[:, 0], both[:, 1]),
        int(loops.sum()),
        arr.shape[0] - unique.shape[0],
    )


@st.composite
def edge_lists(draw):
    """A node count (0 and 1 included) and an edge list over a prefix of the
    nodes, so the last rows may be empty; loops and duplicates are common."""
    n = draw(st.integers(0, 12))
    used = draw(st.integers(0, n))
    pair = st.tuples(st.integers(0, max(used - 1, 0)), st.integers(0, max(used - 1, 0)))
    edges = draw(st.lists(pair, max_size=40)) if used else []
    return n, edges


@settings(max_examples=400, deadline=None)
@given(spec=edge_lists())
@example(spec=(0, []))
@example(spec=(1, []))
@example(spec=(1, [(0, 0), (0, 0)]))
@example(spec=(5, [(2, 2), (0, 0)]))
@example(spec=(6, [(0, 1), (0, 1), (1, 0), (2, 1), (2, 1)]))
def test_key_csr_matches_row_dedup_reference(spec):
    n, edges = spec
    g = build_graph(edges, n)
    out_csr, in_csr, undirected, loops, dups = reference_csr(edges, n)
    for built, expected in ((g.directed_csr(), out_csr), (g.in_csr(), in_csr), (g.undirected_csr(), undirected)):
        for a, b in zip(built, expected):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, dups)
