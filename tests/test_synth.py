import numpy as np
import pytest

from wgm.degrees import degree_histogram, fit_power_law
from wgm.edits import pareto_share, resolve_edits, top_k_share
from wgm.errors import InvalidSpec
from wgm.synth import (
    generate_preferential,
    generate_uniform,
    generate_zipf_edits,
)


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
