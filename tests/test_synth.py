import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import generate_preferential_scalar, generate_uniform_scalar

from wgm.cli import MAX_SYNTH, main
from wgm.degrees import degree_histogram, fit_power_law
from wgm.edits import pareto_share, resolve_edits, top_k_share
from wgm.errors import InvalidSpec
from wgm.synth import (
    _bounded,
    _stream,
    generate_preferential,
    generate_uniform,
    generate_zipf_edits,
)


def same_graph(a, b):
    return a.node_count == b.node_count and np.array_equal(a.edges(), b.edges())


class TestPreferential:
    def test_boundary_is_complete_bidirectional(self):
        g = generate_preferential(4, 3, seed=0)
        assert g.node_count == 4
        assert g.edge_count == 12
        for u in range(4):
            assert g.out_neighbors(u).size == 3
            assert g.in_neighbors(u).size == 3

    def test_edge_count_is_m_times_n(self):
        # clique m(m+1) plus m per grown node collapses to m*n
        g = generate_preferential(50, 3, seed=1)
        assert g.edge_count == 3 * 50

    def test_no_loops_or_duplicates(self):
        g = generate_preferential(200, 4, seed=2)
        assert g.dropped_self_loops == 0
        assert g.dropped_duplicates == 0

    def test_deterministic(self):
        a = generate_preferential(300, 3, seed=9)
        b = generate_preferential(300, 3, seed=9)
        assert np.array_equal(a.edges(), b.edges())

    def test_seed_changes_output(self):
        a = generate_preferential(300, 3, seed=1)
        b = generate_preferential(300, 3, seed=2)
        assert not np.array_equal(a.edges(), b.edges())

    def test_m_one_works(self):
        g = generate_preferential(20, 1, seed=3)
        assert g.edge_count == 20

    def test_heavy_tail_exponent(self):
        g = generate_preferential(10_000, 3, seed=7)
        fit = fit_power_law(degree_histogram(g, "total"), x_min=3)
        assert 2.4 <= fit.alpha <= 3.4

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            generate_preferential(5, 0, seed=0)
        with pytest.raises(InvalidSpec):
            generate_preferential(5, 5, seed=0)


class TestUniform:
    def test_p_zero_empty(self):
        assert generate_uniform(5, 0.0, seed=0).edge_count == 0

    def test_p_one_complete(self):
        g = generate_uniform(4, 1.0, seed=0)
        assert g.edge_count == 12

    def test_edge_count_within_binomial_bounds(self):
        n, p = 500, 0.02
        trials = n * (n - 1)
        mean = trials * p
        sigma = (trials * p * (1 - p)) ** 0.5
        g = generate_uniform(n, p, seed=123)
        assert abs(g.edge_count - mean) <= 4 * sigma

    def test_deterministic(self):
        a = generate_uniform(200, 0.01, seed=5)
        b = generate_uniform(200, 0.01, seed=5)
        assert np.array_equal(a.edges(), b.edges())

    def test_invalid_p(self):
        with pytest.raises(InvalidSpec):
            generate_uniform(5, -0.1, seed=0)
        with pytest.raises(InvalidSpec):
            generate_uniform(5, 1.1, seed=0)

    @pytest.mark.parametrize("p", [5e-324, 1e-310])
    def test_p_near_zero_gives_no_edges_without_overflow(self, p):
        # the scalar loop raised OverflowError here: a skip of inf pairs
        with pytest.raises(OverflowError):
            generate_uniform_scalar(60, p, seed=1)
        for seed in range(5):
            assert generate_uniform(60, p, seed).edge_count == 0

    def test_p_at_the_clamp_matches_the_scalar_loop(self):
        for seed in range(5):
            assert same_graph(generate_uniform(60, 1e-300, seed), generate_uniform_scalar(60, 1e-300, seed))

    def test_cli_p_near_zero_exits_0(self, tmp_path, capsys):
        assert main(["synth", "--kind", "uniform", "--n", "2", "--p", "1e-310", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "edges.tsv").read_bytes() == b""


class TestZipfEdits:
    def test_single_author_has_full_share(self):
        data = generate_zipf_edits(1, 4, 200, s=1.0, seed=0)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for cat in {c for _, c in log.resolved}:
            assert top_k_share(log, cat, 1) == 1.0

    def test_large_s_concentrates_on_top_author(self):
        data = generate_zipf_edits(50, 1, 5000, s=10.0, seed=1)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        assert top_k_share(log, 0, 1) >= 0.99

    def test_top_quintile_share_at_s_one(self):
        data = generate_zipf_edits(100, 1, 10_000, s=1.0, seed=2)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        assert pareto_share(log, 0, 0.2) >= 0.6

    def test_author_ids_start_at_one(self):
        data = generate_zipf_edits(10, 3, 100, s=1.0, seed=3)
        assert min(rec.author_id for rec in data.records) >= 1

    def test_every_edit_resolvable(self):
        data = generate_zipf_edits(20, 5, 500, s=1.2, seed=4)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        assert sum(log.resolved.values()) == 500

    def test_home_bias_one_gives_single_category_authors(self):
        data = generate_zipf_edits(15, 6, 400, s=0.5, seed=5, home_bias=1.0)
        authors_cats = {}
        for rec in data.records:
            authors_cats.setdefault(rec.author_id, set()).add(rec.article_id)
        assert all(len(cats) == 1 for cats in authors_cats.values())

    def test_deterministic(self):
        a = generate_zipf_edits(30, 8, 1000, s=1.0, seed=6)
        b = generate_zipf_edits(30, 8, 1000, s=1.0, seed=6)
        assert a.records == b.records

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            generate_zipf_edits(0, 3, 10, s=1.0, seed=0)
        with pytest.raises(InvalidSpec):
            generate_zipf_edits(3, 3, 10, s=0.0, seed=0)
        with pytest.raises(InvalidSpec):
            generate_zipf_edits(3, 3, 10, s=1.0, seed=0, home_bias=1.5)


def test_uniform_histogram_is_light_tailed_vs_preferential():
    # the heavy-tailed generator should fit a log-log line much better
    pref = generate_preferential(3000, 3, seed=11)
    ecount = pref.edge_count
    p = ecount / (3000 * 2999)
    unif = generate_uniform(3000, p, seed=11)
    fit_pref = fit_power_law(degree_histogram(pref, "total"), x_min=3)
    fit_unif = fit_power_law(degree_histogram(unif, "total"), x_min=3)
    assert fit_pref.r_squared > fit_unif.r_squared


class TestScalarDrawOracle:
    """The block generators give exactly the edges of the one-draw-per-call
    loops they replaced (`tests/oracles.py`)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("size", ["m+1", "m+2", 50, 1000, 20000])
    def test_preferential_grid(self, m, size):
        n = {"m+1": m + 1, "m+2": m + 2}.get(size, size)
        for seed in (0, 1, 2**32 + 5):
            assert same_graph(generate_preferential(n, m, seed), generate_preferential_scalar(n, m, seed))

    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.01, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 60, 400])
    def test_uniform_grid(self, n, p):
        for seed in (0, 1, 7):
            assert same_graph(generate_uniform(n, p, seed), generate_uniform_scalar(n, p, seed))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 300), seed=st.integers(0, 2**64 - 1))
    def test_preferential_small_specs(self, data, n, seed):
        m = data.draw(st.integers(1, min(n - 1, 12)))
        assert same_graph(generate_preferential(n, m, seed), generate_preferential_scalar(n, m, seed))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 80), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
    def test_uniform_small_specs(self, n, p, seed):
        try:
            expected = generate_uniform_scalar(n, p, seed)
        except OverflowError:  # the scalar loop's skip overflowed to inf
            assert p < 1e-300  # where only a draw of exactly 0.0 gives an edge
            assert generate_uniform(n, p, seed).edge_count == 0
            return
        assert same_graph(generate_uniform(n, p, seed), expected)


def halves(rng, size):
    """rng's 32-bit outputs as numpy's scalar draws take them: each raw
    64-bit word's low half, then its high half."""
    return _stream(lambda k: rng.bit_generator.random_raw(k).astype("<u8").view("<u4"), size)


class TestBlockDraws:
    """The premises of the block generators, checked against numpy itself."""

    # 2**31 + 1 rejects about half its 32-bit draws; the generators' own
    # bounds (at most 2*m*n) almost never reach the rejection branch
    @pytest.mark.parametrize("b", [2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1])
    def test_bounded_is_one_integers_call(self, b):
        ours, numpy_rng = np.random.default_rng(11), np.random.default_rng(11)
        stream = halves(ours, 97)
        used = 0

        def draw():
            nonlocal used
            used += 1
            return next(stream)

        got = [_bounded(draw, b) for _ in range(3000)]
        assert got == [int(numpy_rng.integers(0, b)) for _ in range(3000)]
        if b == 2**31 + 1:
            assert used > 5000  # the rejection branch ran about 3000 times
        # both sides consumed the same outputs: the next draws agree too
        assert next(stream) == int(numpy_rng.integers(0, 2**32 - 1, endpoint=True))

    def test_block_uniforms_equal_scalar_calls(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert a.random(1000).tolist() == [b.random() for _ in range(1000)]
        stream = _stream(a.random, 7)
        assert [next(stream) for _ in range(50)] == [b.random() for _ in range(50)]


class TestRangeGuard:
    """`_bounded` holds for pool sizes below 2**32 only, so m*n < 2**31."""

    @pytest.mark.parametrize("n, m", [(2**30, 2), (2**28 + 1, 8), (10**7, 215)])
    def test_preferential_rejects_m_times_n_at_or_past_2_31(self, n, m):
        with pytest.raises(InvalidSpec, match="m\\*n < 2\\*\\*31"):
            generate_preferential(n, m, seed=0)

    def test_cli_edge_cap_is_far_below_the_guard(self, tmp_path, capsys):
        assert MAX_SYNTH < 2**31 // 100
        # n within the node cap, m*n past the guard: the edge cap answers first
        argv = ["synth", "--kind", "preferential", "--n", str(10**7), "--m", "215", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "the edge count to generate must be <= 10000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
