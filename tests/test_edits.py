import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgm.cli import ACTIVE_COLUMNS, BIN_COLUMNS, main, render
from wgm.edits import (
    ANONYMOUS_AUTHOR,
    MAX_HISTOGRAM_BINS,
    AuthorProfile,
    active_category_histogram,
    author_entropy,
    build_profiles,
    category_report,
    category_stats,
    edits_per_author,
    entropy_histogram,
    entropy_report,
    max_share,
    max_share_histogram,
    pareto_share,
    resolve_edits,
    top_k_share,
)
from wgm.errors import (
    DomainError,
    EmptyCategory,
    EmptyCategorySelection,
    EmptyLog,
    EmptyProfile,
    InvalidFraction,
)
from wgm.ingest import CategoryMap, EditRecord, load_category_map, load_edit_log
from wgm.synth import generate_zipf_edits

from oracles import entropy_direct, resolve_double_loop, resolve_edits_unique, share_of_top


def make_log(pairs, article_cats=None, categories=None):
    """Log from (author, article) pairs; articles default to one category each."""
    articles = {a for _, a in pairs}
    if article_cats is None:
        article_cats = {a: frozenset([a]) for a in articles}
    cats = categories if categories is not None else set().union(*article_cats.values())
    catmap = CategoryMap(
        article_to_categories=article_cats,
        category_names={c: f"c{c}" for c in cats},
    )
    return resolve_edits([EditRecord(a, b) for a, b in pairs], catmap, cats)


class TestResolveEdits:
    def test_single_category_counts(self):
        log = make_log([(1, 10), (1, 10), (1, 10)])
        assert log.resolved == {(1, 10): 3}

    def test_multi_membership_counts_once_per_category(self):
        log = make_log([(1, 10)], article_cats={10: frozenset([5, 6])})
        assert log.resolved == {(1, 5): 1, (1, 6): 1}

    def test_edits_outside_selection_dropped(self):
        log = make_log([(1, 10), (2, 99)], article_cats={10: frozenset([5])}, categories={5})
        assert log.resolved == {(1, 5): 1}

    def test_matches_double_loop_oracle(self):
        data = generate_zipf_edits(25, 7, 500, s=1.1, seed=8)
        cats = data.category_map.categories()
        log = resolve_edits(data.records, data.category_map, cats)
        ref = resolve_double_loop(data.records, data.category_map.article_to_categories, cats)
        assert log.resolved == ref

    def test_empty_selection(self):
        with pytest.raises(EmptyCategorySelection):
            make_log([(1, 10)], categories=set())


INT64_MAX = 2**63 - 1
DATA = Path(__file__).parent / "data"


@st.composite
def id_logs(draw):
    """(records, catmap, selected) over small, huge or negative ids, so that
    the one-sort keys take both sides of their overflow branch."""
    ids = draw(st.sampled_from([st.integers(0, 40), st.integers(0, INT64_MAX), st.integers(-(2**63), INT64_MAX)]))
    authors = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    articles = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    cats = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    records = draw(st.lists(st.tuples(st.sampled_from(authors), st.sampled_from(articles)), max_size=60))
    membership = draw(
        st.dictionaries(
            st.sampled_from(articles) | ids, st.frozensets(st.sampled_from(cats), min_size=1, max_size=4), max_size=8
        )
    )
    catmap = CategoryMap(article_to_categories=membership, category_names={c: f"c{c}" for c in cats})
    selected = draw(st.frozensets(st.sampled_from(cats) | ids, min_size=1, max_size=4))
    return records, catmap, selected


def assert_same_log(got, want):
    for name in ("author", "category", "count"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestOneSortResolution:
    """`resolve_edits` against the three-`np.unique` resolver it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(log=id_logs())
    # article 2**63 - 1 makes the key span 2**63, past int64, though author 0's keys fit
    @example(log=([(0, 2**63 - 1)], CategoryMap(article_to_categories={2**63 - 1: {0}}), frozenset([0])))
    def test_equals_unique_reference(self, log):
        assert_same_log(resolve_edits(*log), resolve_edits_unique(*log))

    @pytest.mark.parametrize("author, wide", [(2**31 - 1, False), (2**31, True)])
    def test_overflow_branch_starts_past_int64_max(self, monkeypatch, author, wide):
        """With span 2**32, author 2**31 - 1 gives the largest key 2**63 - 1
        exactly; author 2**31 would pass it, and both columns are ranked."""
        catmap = CategoryMap(article_to_categories={5: frozenset([1]), 2**32 - 1: frozenset([1, 2])}, category_names={})
        records = [(author, 2**32 - 1), (3, 5), (author, 5), (author, 2**32 - 1), (0, 7)]
        want = resolve_edits_unique(records, catmap, {1, 2})
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        assert_same_log(resolve_edits(records, catmap, {1, 2}), want)
        assert len(calls) == (2 if wide else 0)
        assert want.resolved == {(3, 1): 1, (author, 1): 3, (author, 2): 2}

    def test_no_edits(self):
        catmap = CategoryMap(article_to_categories={5: frozenset([1])}, category_names={1: "c1"})
        assert_same_log(resolve_edits([], catmap, {1}), resolve_edits_unique([], catmap, {1}))

    @pytest.mark.parametrize("shift", [0, -(2**62), 2**62], ids=["keyed", "negative", "too-wide"])
    def test_articles_missing_from_the_map(self, shift):
        """An article before, between or after the map's articles, or only in
        an unselected category, gets no rows, whether the pairs are keyed by
        id or (negative or too-wide ids) by rank."""
        membership = {shift + 5: frozenset([1, 2]), shift + 9: frozenset([2]), shift + 11: frozenset([3])}
        catmap = CategoryMap(article_to_categories=membership, category_names={})
        records = [(3, 2), (3, 5), (4, 7), (4, 9), (4, 11), (4, 9), (3, 12)]
        records = [(author, shift + article) for author, article in records]
        want = resolve_edits_unique(records, catmap, {1, 2})
        assert_same_log(resolve_edits(records, catmap, {1, 2}), want)
        assert want.resolved == {(3, 1): 1, (3, 2): 1, (4, 2): 2}

    @pytest.mark.parametrize("every", [1, 2], ids=["all-categories", "every-other-category"])
    def test_fixture_equals_unique_reference(self, every):
        records = load_edit_log(DATA / "edits.tsv")
        catmap = load_category_map(DATA / "catmap.tsv", DATA / "catnames.tsv")
        selected = frozenset(sorted(catmap.categories())[::every])
        assert_same_log(resolve_edits(records, catmap, selected), resolve_edits_unique(records, catmap, selected))


class TestEditsPerAuthor:
    def test_reference_arithmetic(self):
        pairs = []
        counts = [1000, 900, 800, 700, 500, 400, 300, 200, 100, 50, 20, 6, 1]
        assert sum(counts) == 4977 and len(counts) == 13
        for author, c in enumerate(counts, start=1):
            pairs += [(author, 0)] * c
        log = make_log(pairs)
        assert round(edits_per_author(log, 0), 1) == 382.8

    def test_single_author_single_edit(self):
        assert edits_per_author(make_log([(1, 0)]), 0) == 1.0

    def test_matches_exhaustive_tally(self):
        data = generate_zipf_edits(40, 6, 2000, s=1.0, seed=9)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for cat in sorted({c for _, c in log.resolved}):
            edits = sum(n for (_, c), n in log.resolved.items() if c == cat)
            authors = len({a for (a, c) in log.resolved if c == cat})
            assert edits_per_author(log, cat) == pytest.approx(edits / authors, abs=1e-12)

    def test_empty_category(self):
        with pytest.raises(EmptyCategory):
            edits_per_author(make_log([(1, 0)]), 99)


class TestShares:
    def test_uniform_authors_top_quintile(self):
        log = make_log([(a, 0) for a in range(1, 6)] * 3)
        assert pareto_share(log, 0, 0.2) == pytest.approx(0.2)

    def test_single_author_full_share_any_fraction(self):
        log = make_log([(1, 0)] * 7)
        for fraction in (0.01, 0.2, 0.5, 1.0):
            assert pareto_share(log, 0, fraction) == 1.0

    def test_full_fraction_is_exactly_one(self):
        data = generate_zipf_edits(30, 4, 900, s=1.3, seed=10)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for cat in {c for _, c in log.resolved}:
            assert pareto_share(log, cat, 1.0) == 1.0

    def test_monotone_in_fraction(self):
        data = generate_zipf_edits(50, 3, 2000, s=1.0, seed=11)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        fractions = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
        shares = [pareto_share(log, 0, f) for f in fractions]
        assert shares == sorted(shares)

    def test_matches_sorted_prefix_oracle(self):
        log = make_log([(1, 0)] * 10 + [(2, 0)] * 5 + [(3, 0)] * 5 + [(4, 0)] * 2)
        counts = {1: 10, 2: 5, 3: 5, 4: 2}
        assert pareto_share(log, 0, 0.5) == share_of_top(counts, math.ceil(0.5 * 4))
        assert top_k_share(log, 0, 2) == share_of_top(counts, 2)

    def test_tie_break_by_ascending_author_id(self):
        # authors 2 and 3 tie; the head must take author 2 first
        log = make_log([(3, 0)] * 5 + [(2, 0)] * 5 + [(1, 0)] * 90)
        assert top_k_share(log, 0, 2) == pytest.approx(0.95)

    def test_top_k_saturates(self):
        log = make_log([(1, 0), (2, 0), (2, 0)])
        assert top_k_share(log, 0, 2) == 1.0
        assert top_k_share(log, 0, 99) == 1.0

    def test_single_author_top1(self):
        assert top_k_share(make_log([(5, 0)] * 4), 0, 1) == 1.0

    def test_invalid_fraction(self):
        log = make_log([(1, 0)])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidFraction):
                pareto_share(log, 0, bad)

    def test_anonymous_excluded_by_default(self):
        log = make_log([(ANONYMOUS_AUTHOR, 0)] * 90 + [(1, 0)] * 6 + [(2, 0)] * 4)
        assert top_k_share(log, 0, 1) == pytest.approx(0.6)
        assert top_k_share(log, 0, 1, include_anonymous=True) == pytest.approx(0.9)
        assert pareto_share(log, 0, 1.0) == 1.0

    def test_anonymous_only_category_is_empty_for_shares(self):
        log = make_log([(ANONYMOUS_AUTHOR, 0)] * 5)
        with pytest.raises(EmptyCategory):
            top_k_share(log, 0, 1)
        assert top_k_share(log, 0, 1, include_anonymous=True) == 1.0


class TestActiveCategoryHistogram:
    def test_everyone_everywhere(self):
        pairs = [(a, c) for a in range(1, 5) for c in range(3)]
        assert active_category_histogram(make_log(pairs)) == {3: 4}

    def test_matches_set_size_oracle(self):
        data = generate_zipf_edits(60, 9, 3000, s=1.0, seed=12)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        active = {}
        for author, cat in log.resolved:
            active.setdefault(author, set()).add(cat)
        expected = {}
        for cats in active.values():
            expected[len(cats)] = expected.get(len(cats), 0) + 1
        assert active_category_histogram(log) == expected

    def test_empty_log(self):
        empty = make_log([], article_cats={10: frozenset([5])}, categories={5})
        with pytest.raises(EmptyLog):
            active_category_histogram(empty)


class TestProfiles:
    def test_build_sorted_by_author(self):
        log = make_log([(3, 0), (1, 0), (2, 1)])
        assert [p.author_id for p in build_profiles(log)] == [1, 2, 3]

    def test_max_share_single_edit(self):
        profile = AuthorProfile(author_id=1, edits_per_category={4: 1}, total_edits=1)
        assert max_share(profile) == 1.0

    def test_max_share_uniform_four(self):
        profile = AuthorProfile(1, {c: 5 for c in range(4)}, 20)
        assert max_share(profile) == 0.25

    def test_max_share_matches_scan(self):
        data = generate_zipf_edits(35, 8, 1500, s=1.0, seed=13)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for p in build_profiles(log):
            expected = max(p.edits_per_category.values()) / p.total_edits
            assert max_share(p) == pytest.approx(expected, abs=1e-12)

    def test_entropy_single_category_is_zero(self):
        assert author_entropy(AuthorProfile(1, {2: 17}, 17)) == 0.0

    def test_entropy_uniform_four_is_two_bits(self):
        assert author_entropy(AuthorProfile(1, {c: 3 for c in range(4)}, 12)) == 2.0

    def test_entropy_matches_direct_recomputation(self):
        data = generate_zipf_edits(45, 10, 2500, s=1.1, seed=14)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for p in build_profiles(log):
            assert author_entropy(p) == pytest.approx(
                entropy_direct(list(p.edits_per_category.values())), abs=1e-12
            )

    def test_entropy_bounded_by_log2_categories(self):
        data = generate_zipf_edits(45, 10, 2500, s=1.0, seed=15)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for p in build_profiles(log):
            assert 0.0 <= author_entropy(p) <= math.log2(10) + 1e-12
            assert author_entropy(p) <= math.log2(p.active_categories) + 1e-12

    def test_zero_entropy_iff_single_category(self):
        data = generate_zipf_edits(45, 10, 2500, s=1.0, seed=16)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        for p in build_profiles(log):
            assert (author_entropy(p) == 0.0) == (p.active_categories == 1)
            assert (max_share(p) == 1.0) == (p.active_categories == 1)

    def test_empty_profile(self):
        with pytest.raises(EmptyProfile):
            max_share(AuthorProfile(1, {}, 0))
        with pytest.raises(EmptyProfile):
            author_entropy(AuthorProfile(1, {}, 0))


class TestScalingInvariance:
    def test_integer_scaling_leaves_relative_measures_fixed(self):
        base_pairs = [(1, 0)] * 6 + [(1, 1)] * 2 + [(2, 0)] * 3 + [(3, 1)] * 1
        log1 = make_log(base_pairs)
        log5 = make_log(base_pairs * 5)
        for cat in (0, 1):
            assert pareto_share(log5, cat, 0.4) == pareto_share(log1, cat, 0.4)
            assert top_k_share(log5, cat, 1) == top_k_share(log1, cat, 1)
            assert edits_per_author(log5, cat) == 5 * edits_per_author(log1, cat)
        for p1, p5 in zip(build_profiles(log1), build_profiles(log5)):
            assert author_entropy(p5) == pytest.approx(author_entropy(p1), abs=1e-12)
            assert max_share(p5) == max_share(p1)


def test_category_totals_equal_author_totals_for_single_category_articles():
    data = generate_zipf_edits(25, 6, 800, s=1.0, seed=18)
    log = resolve_edits(data.records, data.category_map, data.category_map.categories())
    by_category = {}
    for (_, cat), n in log.resolved.items():
        by_category[cat] = by_category.get(cat, 0) + n
    author_total = sum(p.total_edits for p in build_profiles(log))
    assert sum(by_category.values()) == author_total == 800


class TestEntropyReport:
    def test_all_specialists_mean_zero(self):
        report = entropy_report(make_log([(1, 0), (1, 0), (2, 1), (3, 2)]))
        assert report.mean_entropy == 0.0
        assert report.max_entropy == 0.0

    def test_includes_anonymous_aggregate(self):
        log = make_log([(ANONYMOUS_AUTHOR, 0), (ANONYMOUS_AUTHOR, 1), (1, 0)])
        report = entropy_report(log)
        authors = [a for a, _ in report.entries]
        assert ANONYMOUS_AUTHOR in authors

    def test_entries_match_per_author_recomputation(self):
        data = generate_zipf_edits(30, 6, 1200, s=1.0, seed=17)
        log = resolve_edits(data.records, data.category_map, data.category_map.categories())
        report = entropy_report(log)
        by_author = {p.author_id: p for p in build_profiles(log)}
        for author, h in report.entries:
            assert h == pytest.approx(
                entropy_direct(list(by_author[author].edits_per_category.values())), abs=1e-12
            )
        values = [h for _, h in report.entries]
        assert report.min_entropy == min(values)
        assert report.max_entropy == max(values)
        assert report.mean_entropy == pytest.approx(sum(values) / len(values))

    def test_reported_maximum_consistent_with_bound(self):
        # a 40-category selection bounds every entropy by log2(40) ~ 5.32,
        # so a maximum of 5.0075 is attainable
        assert 5.0075 <= math.log2(40)


class TestHistogramAndCsv:
    def test_entropy_histogram_bins(self):
        log = make_log([(1, 0), (1, 1), (2, 0)])  # author 1: H=1.0, author 2: H=0
        bins = entropy_histogram(entropy_report(log), bin_width=0.25)
        assert bins[0] == (0.0, 0.25, 1)
        assert bins[-1] == (1.0, 1.25, 1)
        assert sum(c for _, _, c in bins) == 2

    @pytest.mark.parametrize("width", [1e-300, 5e-324, 2.0 / MAX_HISTOGRAM_BINS])
    def test_bin_count_capped_before_allocating(self, width):
        # H = 1.0 and 2.0: even the last width needs one bin too many
        log = make_log([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)])
        with pytest.raises(DomainError):
            entropy_histogram(entropy_report(log), bin_width=width)

    def test_infinite_width_is_a_domain_error(self):
        # one bin [0, inf) would hold every author, and its upper bound is no JSON number
        with pytest.raises(DomainError, match="finite"):
            entropy_histogram(entropy_report(make_log([(1, 0), (1, 1)])), math.inf)

    def test_entropy_histogram_csv_header(self):
        text = render(entropy_histogram(entropy_report(make_log([(1, 0)]))), "csv", BIN_COLUMNS)
        assert text == "bin_lower,bin_upper,author_count\n0.0,0.25,1\n"

    def test_category_report_csv(self, tmp_path, capsys):
        files = {
            "edits": "1\t0\n" * 4 + "2\t0\n1\t1\n",
            "catmap": "0\t0\n1\t1\n",
            "catnames": "0\talpha\n1\tbeta\n",
        }
        argv = ["categories", "--format", "csv"]
        for name, text in files.items():
            (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
            argv += [f"--{name}", str(tmp_path / f"{name}.tsv")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "category,n_edits,n_authors,ea_bar,top20pct_share,top1_share"
        assert lines[1].startswith("alpha,5,2,2.5,")
        assert lines[2].startswith("beta,1,1,1.0,")

    def test_category_report_skips_anonymous_only(self):
        log = make_log([(1, 0), (2, 0), (0, 1)])
        assert [s.category_id for s in category_report(log)] == [0]
        report = category_report(log, include_anonymous=True)
        assert report == [category_stats(log, c, include_anonymous=True) for c in (0, 1)]

    def test_max_share_histogram_counts_all_authors(self):
        # author 1 splits 50/50 (share 0.5), authors 2 and 3 are single-category (share 1.0)
        log = make_log([(1, 0), (1, 1), (2, 0), (3, 1)])
        bins = max_share_histogram(log, bin_width=0.25)
        assert sum(c for _, _, c in bins) == 3
        assert bins[2] == (0.5, 0.75, 1)
        assert bins[-1] == (1.0, 1.25, 2)

    def test_active_category_csv(self):
        log = make_log([(1, 0), (1, 1), (2, 0)])
        text = render(active_category_histogram(log), "csv", ACTIVE_COLUMNS)
        assert text == "active_categories,author_count\n1,1\n2,1\n"

    def test_category_stats_fields(self):
        log = make_log([(1, 0)] * 8 + [(2, 0)] * 2)
        stats = category_stats(log, 0)
        assert stats.n_edits == 10
        assert stats.n_authors == 2
        assert stats.ea_bar == 5.0
        assert stats.top1_share == pytest.approx(0.8)
        assert stats.top1_share <= stats.top_fraction_share + 1e-12
