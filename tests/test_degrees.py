import numpy as np
import pytest

from wgm.cli import DEGREE_COLUMNS, render
from wgm.degrees import (
    DegreeHistogram,
    classify_authorities,
    degree_histogram,
    fit_power_law,
    fit_power_law_mle,
    top_k_by_degree,
)
from wgm.errors import (
    DomainError,
    EmptyGraph,
    InsufficientPoints,
    InvalidPercentile,
)
from wgm.graph import build_graph, degree_of

from conftest import seeded_graph
from oracles import classify_sort_scan, fit_loglog_polyfit, powerlaw_inverse_cdf_draws


def exact_powerlaw_hist(c, a, k_max):
    entries = {}
    for k in range(1, k_max + 1):
        n = round(c * k**-a)
        if n >= 1:
            entries[k] = n
    return DegreeHistogram(entries=entries, which="total")


class TestDegreeHistogram:
    def test_cycle_total(self, cycle3):
        assert degree_histogram(cycle3, "total").entries == {2: 3}

    def test_star_indegree_keeps_zero_bin(self, star6):
        hist = degree_histogram(star6, "in")
        assert hist.entries == {0: 1, 1: 5}
        assert hist.zero_count == 1

    def test_counts_sum_to_node_count(self, star6):
        for which in ("in", "out", "total"):
            assert degree_histogram(star6, which).node_count() == 6

    def test_matches_per_node_tally(self):
        g = seeded_graph(200, 700, seed=9)
        hist = degree_histogram(g, "total")
        tally = {}
        for u in range(200):
            d = degree_of(g, u).degree
            tally[d] = tally.get(d, 0) + 1
        assert hist.entries == tally

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            degree_histogram(build_graph([], 0))

    def test_csv_export(self, star6):
        hist = degree_histogram(star6, "in")
        assert render(hist.entries, "csv", DEGREE_COLUMNS) == "degree,count\n0,1\n1,5\n"


class TestClassifyAuthorities:
    def test_all_ties_are_regular(self, cycle3):
        q = classify_authorities(cycle3)
        assert (q.all_round, q.referring, q.guru, q.regular) == (0, 0, 0, 3)

    def test_quadrants_sum_to_node_count(self):
        g = seeded_graph(50, 300, seed=21)
        q = classify_authorities(g)
        assert q.all_round + q.referring + q.guru + q.regular == 50

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sort_and_scan_oracle(self, seed):
        g = seeded_graph(20, 60, seed=seed)
        q = classify_authorities(g, 0.90)
        counts, thr_in, thr_out = classify_sort_scan(
            g.indegrees().tolist(), g.outdegrees().tolist(), 0.90
        )
        assert q.all_round == counts["all_round"]
        assert q.referring == counts["referring"]
        assert q.guru == counts["guru"]
        assert q.regular == counts["regular"]
        assert (q.in_threshold, q.out_threshold) == (thr_in, thr_out)

    def test_raising_percentile_never_grows_all_round(self):
        g = seeded_graph(60, 400, seed=8)
        previous = classify_authorities(g, 0.5).all_round
        for pct in (0.6, 0.7, 0.8, 0.9, 0.95):
            current = classify_authorities(g, pct).all_round
            assert current <= previous
            previous = current

    def test_invalid_percentile(self, cycle3):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidPercentile):
                classify_authorities(cycle3, bad)

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            classify_authorities(build_graph([], 0))


class TestFitPowerLaw:
    def test_exact_synthetic_alpha_2(self):
        fit = fit_power_law(exact_powerlaw_hist(1000, 2.0, 50))
        assert abs(fit.alpha - 2.0) <= 0.02
        assert fit.alpha == pytest.approx(1.9913785675691829)
        assert fit.r_squared > 0.99
        assert fit.points_used == 44

    @pytest.mark.parametrize("a", [1.2, 2.0, 3.0])
    def test_exact_synthetic_within_two_percent_points(self, a):
        fit = fit_power_law(exact_powerlaw_hist(1_000_000, a, 50))
        assert abs(fit.alpha - a) <= 0.02

    def test_sampled_alpha_recovery(self):
        draws = powerlaw_inverse_cdf_draws(2.5, 100_000, seed=17)
        values, counts = np.unique(draws, return_counts=True)
        hist = DegreeHistogram(
            entries={int(v): int(c) for v, c in zip(values, counts)}, which="total"
        )
        fit = fit_power_law(hist)
        assert abs(fit.alpha - 2.5) <= 0.15

    def test_matches_polyfit_oracle(self):
        hist = exact_powerlaw_hist(5000, 1.7, 40)
        fit = fit_power_law(hist)
        alpha_ref, intercept_ref = fit_loglog_polyfit(hist.entries, 1)
        assert fit.alpha == pytest.approx(alpha_ref, abs=1e-9)
        assert fit.log_prefactor == pytest.approx(intercept_ref, abs=1e-9)

    def test_x_min_restricts_points(self):
        hist = exact_powerlaw_hist(1_000_000, 2.0, 50)
        fit = fit_power_law(hist, x_min=10)
        assert fit.points_used == 41
        assert abs(fit.alpha - 2.0) <= 0.02

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_power_law(DegreeHistogram(entries={3: 10}, which="total"))
        with pytest.raises(InsufficientPoints):
            fit_power_law(exact_powerlaw_hist(1000, 2.0, 50), x_min=60)

    def test_x_min_below_one_rejected(self):
        with pytest.raises(DomainError):
            fit_power_law(exact_powerlaw_hist(1000, 2.0, 50), x_min=0)

    def test_mle_close_on_clean_power_law(self):
        draws = powerlaw_inverse_cdf_draws(2.5, 100_000, seed=3)
        values, counts = np.unique(draws, return_counts=True)
        hist = DegreeHistogram(
            entries={int(v): int(c) for v, c in zip(values, counts)}, which="total"
        )
        fit = fit_power_law_mle(hist)
        assert abs(fit.alpha - 2.5) <= 0.15
        assert 0.0 <= fit.r_squared <= 1.0


class TestTopKByDegree:
    def test_star_out(self, star6):
        assert top_k_by_degree(star6, "out", 1) == [(0, 5)]

    def test_k_larger_than_node_count_truncates(self, cycle3):
        result = top_k_by_degree(cycle3, "total", 10)
        assert result == [(0, 2), (1, 2), (2, 2)]

    def test_matches_full_sort_oracle(self):
        g = seeded_graph(40, 200, seed=31)
        degs = (g.indegrees() + g.outdegrees()).tolist()
        expected = sorted(((u, d) for u, d in enumerate(degs)), key=lambda t: (-t[1], t[0]))
        assert top_k_by_degree(g, "total", 10) == expected[:10]

    def test_full_ranking_is_permutation(self):
        g = seeded_graph(25, 80, seed=12)
        ranked = top_k_by_degree(g, "in", 25)
        assert sorted(u for u, _ in ranked) == list(range(25))

    def test_bad_k(self, cycle3):
        with pytest.raises(DomainError):
            top_k_by_degree(cycle3, "total", 0)
