import functools
import math
import re

import numpy as np
import pytest

from wgm import structure
from wgm.cli import TRACE_COLUMNS, render
from wgm.errors import DomainError, EmptyGraph, SingleNode
from wgm.graph import build_graph
from wgm.structure import (
    exact_clustering,
    local_clustering,
    sampled_avg_path,
    sampled_clustering,
)
from wgm.synth import generate_preferential, generate_uniform

from conftest import distinct_random_edges, seeded_graph
from oracles import (
    all_pairs_mean_bfs,
    all_pairs_mean_floyd_warshall,
    clustering_triple_loop,
    pair_depths_bfs,
)


def triangles_graph(count):
    """`count` disjoint bidirectional 3-cycles."""
    edges = []
    for t in range(count):
        base = 3 * t
        for i in range(3):
            for j in range(3):
                if i != j:
                    edges.append((base + i, base + j))
    return build_graph(edges, 3 * count)


class TestLocalClustering:
    def test_complete_graph(self, k4_bidirectional):
        for u in range(4):
            assert local_clustering(k4_bidirectional, u) == 1.0

    def test_star_center(self, star6):
        assert local_clustering(star6, 0) == 0.0

    def test_degree_below_two_is_zero(self):
        g = build_graph([(0, 1)], 3)
        for u in range(3):
            assert local_clustering(g, u) == 0.0

    def test_matches_triple_loop_oracle_every_node(self):
        g = seeded_graph(30, 110, seed=13)
        expected = clustering_triple_loop([tuple(e) for e in g.edges().tolist()], 30)
        for u in range(30):
            assert local_clustering(g, u) == pytest.approx(expected[u], abs=1e-12)

    def test_direction_ignored(self):
        # a one-way triangle closes the same triangle as a two-way one
        one_way = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        for u in range(3):
            assert local_clustering(one_way, u) == 1.0


class TestExactClustering:
    def test_complete(self, k4_bidirectional):
        assert exact_clustering(k4_bidirectional) == 1.0

    def test_star(self, star6):
        assert exact_clustering(star6) == 0.0

    def test_matches_oracle_mean(self):
        g = seeded_graph(30, 110, seed=14)
        expected = clustering_triple_loop([tuple(e) for e in g.edges().tolist()], 30)
        assert exact_clustering(g) == pytest.approx(math.fsum(expected) / 30, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            exact_clustering(build_graph([], 0))


class TestSampledClustering:
    def test_all_triangles_estimate_is_one(self):
        g = triangles_graph(10)
        for seed in (0, 1, 99):
            trace = sampled_clustering(g, 500, seed=seed)
            assert trace.final_estimate == 1.0

    def test_same_seed_bit_identical(self):
        g = seeded_graph(100, 400, seed=7)
        t1 = sampled_clustering(g, 5000, seed=42)
        t2 = sampled_clustering(g, 5000, seed=42)
        assert t1 == t2
        assert render(t1.estimates, "csv", TRACE_COLUMNS) == render(t2.estimates, "csv", TRACE_COLUMNS)

    def test_different_seeds_differ(self):
        g = seeded_graph(100, 400, seed=7)
        assert sampled_clustering(g, 5000, seed=1) != sampled_clustering(g, 5000, seed=2)

    def test_trace_shape_and_running_mean_range(self):
        g = seeded_graph(50, 150, seed=3)
        trace = sampled_clustering(g, 1050, seed=5)
        marks = [s for s, _ in trace.estimates]
        assert marks == list(range(100, 1001, 100)) + [1050]
        assert all(0.0 <= m <= 1.0 for _, m in trace.estimates)
        assert trace.final_estimate == trace.estimates[-1][1]

    def test_trace_ends_on_a_stride_multiple_once(self):
        g = seeded_graph(50, 150, seed=3)
        for n_samples, marks in ((100, [100]), (200, [100, 200])):
            assert [s for s, _ in sampled_clustering(g, n_samples, seed=5).estimates] == marks

    def test_single_sample_trace(self):
        g = seeded_graph(10, 20, seed=1)
        trace = sampled_clustering(g, 1, seed=0)
        assert len(trace.estimates) == 1
        assert trace.estimates[0][0] == 1

    def test_converges_to_exact_mean(self):
        g = generate_uniform(1000, 0.004, seed=6)
        exact = exact_clustering(g)
        trace = sampled_clustering(g, 50_000, seed=11)
        assert abs(trace.final_estimate - exact) <= 0.01

    def test_bad_sample_count(self, cycle3):
        with pytest.raises(DomainError):
            sampled_clustering(cycle3, 0, seed=1)

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            sampled_clustering(build_graph([], 0), 10, seed=1)


class TestSampledAvgPath:
    def test_complete_graph_distance_one(self, k4_bidirectional):
        res = sampled_avg_path(k4_bidirectional, 50, seed=2)
        assert res.mean_path_length == 1.0
        assert res.unreachable_fraction == 0.0

    def test_two_hop_chain_exhaustive(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        res = sampled_avg_path(g, 1, seed=0, directed=True, exhaustive=True)
        assert res.reachable_pairs == 3
        assert res.sampled_pairs == 6
        assert res.mean_path_length == pytest.approx(4 / 3)
        assert res.unreachable_fraction == pytest.approx(0.5)

    def test_undirected_projection_flag(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        res = sampled_avg_path(g, 1, seed=0, directed=False, exhaustive=True)
        assert res.reachable_pairs == 6
        assert res.mean_path_length == pytest.approx(8 / 6)

    @pytest.mark.parametrize("directed", [True, False])
    def test_exhaustive_matches_bfs_oracle(self, directed):
        g = seeded_graph(60, 200, seed=23)
        edges = [tuple(e) for e in g.edges().tolist()]
        res = sampled_avg_path(g, 1, seed=0, directed=directed, exhaustive=True)
        ref_mean, ref_reachable = all_pairs_mean_bfs(edges, 60, directed)
        assert res.reachable_pairs == ref_reachable
        assert res.mean_path_length == pytest.approx(ref_mean, abs=1e-12)

    def test_exhaustive_matches_floyd_warshall(self):
        g = generate_preferential(80, 2, seed=5)
        edges = [tuple(e) for e in g.edges().tolist()]
        res = sampled_avg_path(g, 1, seed=0, directed=True, exhaustive=True)
        ref_mean, ref_reachable = all_pairs_mean_floyd_warshall(edges, 80, True)
        assert res.reachable_pairs == ref_reachable
        assert res.mean_path_length == pytest.approx(ref_mean, abs=1e-12)

    def test_sampling_close_to_exact(self):
        g = seeded_graph(200, 1200, seed=4)
        exact = sampled_avg_path(g, 1, seed=0, exhaustive=True)
        approx = sampled_avg_path(g, 20_000, seed=9)
        assert abs(approx.mean_path_length - exact.mean_path_length) <= 0.05

    def test_same_seed_identical(self):
        g = seeded_graph(100, 500, seed=1)
        assert sampled_avg_path(g, 2000, seed=3) == sampled_avg_path(g, 2000, seed=3)

    def test_isolated_nodes_raise_unreachable_but_not_mean(self):
        edges = [(u, v) for u in range(5) for v in range(5) if u != v]
        base = build_graph(edges, 5)
        padded = build_graph(edges, 9)
        r_base = sampled_avg_path(base, 1, seed=0, exhaustive=True)
        r_padded = sampled_avg_path(padded, 1, seed=0, exhaustive=True)
        assert r_padded.mean_path_length == r_base.mean_path_length
        assert r_padded.unreachable_fraction > r_base.unreachable_fraction

    def test_all_unreachable_gives_nan_mean(self):
        g = build_graph([], 3)
        res = sampled_avg_path(g, 1, seed=0, exhaustive=True)
        assert math.isnan(res.mean_path_length)
        assert res.unreachable_fraction == 1.0

    def test_single_node(self):
        with pytest.raises(SingleNode):
            sampled_avg_path(build_graph([], 1), 5, seed=0)

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            sampled_avg_path(build_graph([], 0), 5, seed=0)

    def test_bad_pair_count(self, cycle3):
        with pytest.raises(DomainError):
            sampled_avg_path(cycle3, 0, seed=0)


def test_trace_csv_round_trip_values():
    g = triangles_graph(4)
    trace = sampled_clustering(g, 250, seed=8)
    text = render(trace.estimates, "csv", TRACE_COLUMNS)
    lines = text.strip().split("\n")
    assert lines[0] == "samples,running_mean"
    parsed = [(int(s), float(m)) for s, m in (ln.split(",") for ln in lines[1:])]
    assert parsed == list(trace.estimates)


def _drawn_pairs(n, n_pairs, seed):
    """The ordered pairs sampled_avg_path draws for (n, n_pairs, seed)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_pairs)
    dst = rng.integers(0, n, size=n_pairs)
    clash = src == dst
    while clash.any():
        m = int(clash.sum())
        src[clash] = rng.integers(0, n, size=m)
        dst[clash] = rng.integers(0, n, size=m)
        clash = src == dst
    return list(zip(src.tolist(), dst.tolist()))


def patchy_graph():
    """150 nodes: a random core with sinks, a chain, a 2-cycle and isolated
    nodes at the top ids, so the last CSR rows are empty."""
    edges = distinct_random_edges(120, 260, seed=31)
    edges += [(i, i + 1) for i in range(120, 134)]  # chain: a sink at 134
    edges += [(135, 136), (136, 135)]
    return build_graph(edges, 150)  # 137..149 isolated


def sums(depths):
    """(sum of hop distances, reachable count) of a {distance: count} map."""
    return sum(d * c for d, c in depths.items()), sum(depths.values())


REGIMES = {"switch": 14, "push": 0, "pull": 10**18}


@pytest.fixture(params=sorted(REGIMES))
def regime(request, monkeypatch):
    monkeypatch.setattr(structure, "_PULL_ALPHA", REGIMES[request.param])
    return request.param


class TestMultiSourceBfs:
    @pytest.mark.parametrize("directed", [True, False])
    def test_exhaustive_matches_oracle_over_partial_batches(self, regime, directed):
        g = patchy_graph()  # 150 sources: one batch of three words, 64 + 64 + 22 lanes
        edges = [tuple(e) for e in g.edges().tolist()]
        res = sampled_avg_path(g, 1, seed=0, directed=directed, exhaustive=True)
        pairs = [(s, t) for s in range(150) for t in range(150) if s != t]
        total, reachable = sums(pair_depths_bfs(edges, 150, pairs, directed))
        assert res.reachable_pairs == reachable
        assert res.mean_path_length == total / reachable
        assert res.sampled_pairs == len(pairs)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("n_pairs", [1, 63, 5000])
    def test_sampled_matches_oracle(self, regime, directed, n_pairs):
        g = patchy_graph()
        edges = [tuple(e) for e in g.edges().tolist()]
        res = sampled_avg_path(g, n_pairs, seed=17, directed=directed)
        pairs = _drawn_pairs(150, n_pairs, 17)
        total, reachable = sums(pair_depths_bfs(edges, 150, pairs, directed))
        assert res.reachable_pairs == reachable
        if reachable:
            assert res.mean_path_length == total / reachable
        else:
            assert math.isnan(res.mean_path_length)

    def test_more_than_64_sources_on_a_scale_free_graph(self, regime):
        g = generate_preferential(300, 2, seed=8)
        edges = [tuple(e) for e in g.edges().tolist()]
        for directed in (True, False):
            res = sampled_avg_path(g, 3000, seed=4, directed=directed)
            total, reachable = sums(pair_depths_bfs(edges, 300, _drawn_pairs(300, 3000, 4), directed))
            assert (res.reachable_pairs, res.mean_path_length) == (reachable, total / reachable)

    def test_edgeless_graph(self, regime):
        res = sampled_avg_path(build_graph([], 70), 500, seed=1)
        assert res.reachable_pairs == 0 and res.unreachable_fraction == 1.0


def bridged_graph():
    """600 nodes: a chain 0..99 runs into a random core 100..399, whose last
    node starts a chain 400..549; 550..569 form 2-cycles, 570..579 link
    into the first chain, and 580..599 are isolated (empty tail rows)."""
    edges = [(i, i + 1) for i in range(100)]
    edges += [(u + 100, v + 100) for u, v in distinct_random_edges(300, 1800, seed=41)]
    edges += [(i, i + 1) for i in range(399, 549)]
    edges += [(u, u ^ 1) for u in range(550, 570)]
    edges += [(u, u - 570) for u in range(570, 580)]
    return build_graph(edges, 600)


BRIDGED = bridged_graph()


def path_graph(n):
    """The directed path 0 -> 1 -> ... -> n-1, whose end is n - 1 hops from its start."""
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


# name: (graph, sampled pair count, seed). The path's 70 sources fill a word
# and 6 lanes of a second, and its 5,000 drawn pairs include (0, 69).
KERNEL_GRAPHS = {
    "bridged": (BRIDGED, 5000, 23),
    "patchy": (patchy_graph(), 5000, 17),
    "path": (path_graph(70), 5000, 5),
}


@functools.lru_cache(maxsize=None)
def oracle_depths(name, directed, sampled):
    """`pair_depths_bfs` over every ordered pair of a KERNEL_GRAPHS graph, or
    over the pairs `sampled_avg_path` draws for it."""
    graph, n_pairs, seed = KERNEL_GRAPHS[name]
    n = graph.node_count
    pairs = _drawn_pairs(n, n_pairs, seed) if sampled else [(s, t) for s in range(n) for t in range(n) if s != t]
    return pair_depths_bfs([tuple(e) for e in graph.edges().tolist()], n, pairs, directed)


@pytest.fixture(params=[1 << 20, 1200, 1])
def budget(request, monkeypatch):
    monkeypatch.setattr(structure, "_DENSE_BUDGET", request.param)
    return request.param


class TestWordsInFlight:
    """Up to 8 words of 64 sources per batch on a 600-node graph: the
    exhaustive run is one full 512-source batch and a partial one of
    64 + 24 lanes, and 5,000 sampled pairs have more than 512 distinct
    sources. The dense budget patch shrinks the batches to 2 and 1 words."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_exhaustive_matches_oracle(self, regime, budget, directed):
        res = sampled_avg_path(BRIDGED, 1, seed=0, directed=directed, exhaustive=True)
        total, reachable = sums(oracle_depths("bridged", directed, False))
        assert (res.reachable_pairs, res.mean_path_length) == (reachable, total / reachable)
        assert res.sampled_pairs == 600 * 599

    @pytest.mark.parametrize("directed", [True, False])
    def test_sampled_matches_oracle(self, regime, budget, directed):
        assert len({s for s, _ in _drawn_pairs(600, 5000, 23)}) > 512
        res = sampled_avg_path(BRIDGED, 5000, seed=23, directed=directed)
        total, reachable = sums(oracle_depths("bridged", directed, True))
        assert (res.reachable_pairs, res.mean_path_length) == (reachable, total / reachable)

    @pytest.mark.parametrize("directed", [True, False])
    def test_each_level_moves_the_whole_batch_one_way(self, directed, monkeypatch):
        """Each exhaustive batch runs until its frontier is empty; one of them
        pushes, then pulls, then pushes again, and no level both pushes some
        words and pulls others."""
        levels = []
        for name in ("_push", "_pull"):

            def spy(*args, _real=getattr(structure, name), _name=name):
                levels[-1].add(_name[1:])
                return _real(*args)

            monkeypatch.setattr(structure, name, spy)

        def advance(*args, _real=structure._advance):
            levels.append(set())
            keys, *rest = _real(*args)
            levels[-1] = "+".join(sorted(levels[-1])) + ("|" if keys.size == 0 else "")
            return keys, *rest

        monkeypatch.setattr(structure, "_advance", advance)
        res = sampled_avg_path(BRIDGED, 1, seed=0, directed=directed, exhaustive=True)
        assert res.reachable_pairs == sums(oracle_depths("bridged", directed, False))[1]
        batches = ",".join(levels).split("|")
        assert any(re.search(r"push,(pull,)+push", batch) for batch in batches)
        assert {level.rstrip("|") for level in levels} <= {"push", "pull"}


class TestDistanceCounts:
    """`_distance_counts` against the dict BFS depth by depth, so that errors
    which cancel in the sum and count of the distances still show."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_matches_oracle_depth_by_depth(self, regime, budget, name, directed, sampled):
        graph, n_pairs, seed = KERNEL_GRAPHS[name]
        n = graph.node_count
        push = graph.directed_csr() if directed else graph.undirected_csr()
        pull = graph.in_csr() if directed else push
        pairs = np.sort([s * n + t for s, t in _drawn_pairs(n, n_pairs, seed)]) if sampled else None
        counts = structure._distance_counts(push, pull, pairs)
        depths = oracle_depths(name, directed, sampled)
        assert counts.dtype == np.int64
        assert counts.tolist() == [depths.get(d, 0) for d in range(max(depths, default=-1) + 1)]

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_path_reaches_n_minus_1_hops(self, directed, sampled):
        """The BFS runs one level past the deepest hit, here level n."""
        assert max(oracle_depths("path", directed, sampled)) == 69


def hub_graph():
    """Two hubs joined to everything, plus a sparse random rim."""
    edges = [(0, v) for v in range(2, 40)] + [(v, 1) for v in range(2, 40)] + [(0, 1)]
    edges += distinct_random_edges(40, 60, seed=5)
    return build_graph(edges, 40)


def ring_lattice(n, k):
    """Every node linked to its k nearest successors: all degrees 2k."""
    return build_graph([(u, (u + j) % n) for u in range(n) for j in range(1, k + 1)], n)


class TestTriangleKernel:
    @pytest.mark.parametrize(
        "graph",
        [
            hub_graph(),
            generate_preferential(60, 3, seed=2),
            ring_lattice(30, 3),
            ring_lattice(12, 5),
            triangles_graph(5),
            build_graph([(0, 1), (1, 2)], 6),
        ],
        ids=["hubs", "preferential", "ring-ties", "dense-ring-ties", "triangles", "sparse"],
    )
    @pytest.mark.parametrize("block", [1, 7, 1 << 15])
    def test_matches_triple_loop(self, graph, block, monkeypatch):
        monkeypatch.setattr(structure, "_WEDGE_BLOCK", block)
        n = graph.node_count
        expected = clustering_triple_loop([tuple(e) for e in graph.edges().tolist()], n)
        assert structure._coefficients(graph).tolist() == expected

    def test_every_entry_point_reads_the_same_array(self):
        g = hub_graph()
        coeff = structure._coefficients(g).tolist()
        assert [local_clustering(g, u) for u in range(40)] == coeff
        assert exact_clustering(g) == math.fsum(coeff) / 40
        picks = np.random.default_rng(3).integers(0, 40, size=250)
        expected = np.cumsum(np.array(coeff)[picks]) / np.arange(1, 251)
        assert sampled_clustering(g, 250, seed=3).final_estimate == float(expected[-1])
