"""Contribution metrics over category-resolved edit logs: edits per
author, Pareto and top-k shares, active-category histograms, maximum
contribution shares, and author entropy.

Author id 0 is the anonymous aggregate. It takes part in entropy and
activity reports but is excluded by default from the inequality
rankings (pareto_share / top_k_share), where it would masquerade as a
single very active author.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyCategory,
    EmptyCategorySelection,
    EmptyLog,
    EmptyProfile,
    InvalidFraction,
)
from .graph import _run_starts
from .ingest import INT64_MAX, CategoryMap

__all__ = [
    "EditLog",
    "CategoryStats",
    "AuthorProfile",
    "EntropyReport",
    "resolve_edits",
    "edits_per_author",
    "category_stats",
    "category_report",
    "pareto_share",
    "top_k_share",
    "active_category_histogram",
    "build_profiles",
    "max_share",
    "author_entropy",
    "entropy_report",
    "entropy_histogram",
    "max_share_histogram",
]

ANONYMOUS_AUTHOR = 0
# histogram values are shares (<= 1) or entropies in bits (<= log2 of a
# category count, so below 64); the bin count is capped
HISTOGRAM_VALUE_BOUND = 64.0
MAX_HISTOGRAM_BINS = 1_000_000


@dataclass(frozen=True, eq=False)
class EditLog:
    """Category-resolved edit counts as sorted COO columns.

    Row i says that author `author[i]` made `count[i]` edits in category
    `category[i]`. Rows are unique and sorted by (author, category). An
    edit to an article in k selected categories counts once in each.
    """

    author: np.ndarray
    category: np.ndarray
    count: np.ndarray

    @cached_property
    def resolved(self) -> Mapping[tuple[int, int], int]:
        """The rows as a read-only (author_id, category_id) -> count mapping,
        built on first use."""
        keys = zip(self.author.tolist(), self.category.tolist())
        return MappingProxyType(dict(zip(keys, self.count.tolist())))

    def active_categories(self, author: int) -> int:
        """The number of categories `author` edited."""
        return int(np.count_nonzero(self.author == author))


@dataclass(frozen=True)
class CategoryStats:
    category_id: int
    n_edits: int
    n_authors: int
    ea_bar: float
    top_fraction_share: float
    top1_share: float


@dataclass(frozen=True)
class AuthorProfile:
    author_id: int
    edits_per_category: dict[int, int]
    total_edits: int

    @property
    def active_categories(self) -> int:
        return len(self.edits_per_category)


@dataclass(frozen=True)
class EntropyReport:
    entries: tuple[tuple[int, float], ...]
    min_entropy: float
    max_entropy: float
    mean_entropy: float


def resolve_edits(
    records: np.ndarray | Sequence[tuple[int, int]], catmap: CategoryMap, categories: frozenset[int] | set[int]
) -> EditLog:
    """Attribute raw (author_id, article_id) edits to the selected categories.

    Edits to articles outside every selected category are dropped. The
    edits are sorted once as `author*span + article` keys, span being the
    largest article id + 1, so that each run of equal keys is one distinct
    (author, article) pair and its edit count, resolved once.
    """
    if not categories:
        raise EmptyCategorySelection("need at least one selected category")
    edits = np.asarray(records if isinstance(records, np.ndarray) else list(records), dtype=np.int64).reshape(-1, 2)
    cats = np.array(sorted(set(categories)), dtype=np.int64)
    # the map's rows in a selected category, still sorted by article
    slot = np.minimum(np.searchsorted(cats, catmap.category), cats.size - 1)
    member = cats[slot] == catmap.category
    member_article, member_category = catmap.article[member], slot[member]
    author, article = edits[:, 0], edits[:, 1]
    span = int(article.max(initial=0)) + 1
    wide = edits.min(initial=0) < 0 or span > INT64_MAX or int(author.max(initial=0)) * span + span - 1 > INT64_MAX
    if wide:  # negative ids, or ids too large for one int64 key: both columns are keyed by rank
        (author_ids, author), (article_ids, article) = (np.unique(c, return_inverse=True) for c in (author, article))
        span = article_ids.size
    keys = np.sort(author * span + article)
    starts = _run_starts(keys)
    weight = np.diff(starts, append=keys.size)
    author, article = np.divmod(keys[starts], span)
    if wide:
        author, article = author_ids[author], article_ids[article]
    # one row per (pair, selected category of its article): its article's map rows from lo on, 0 if none
    count = np.diff(_run_starts(member_article), append=member_article.size)
    lo = np.searchsorted(member_article, article, side="left")
    width = np.where(np.append(member_article, 0)[lo] == article, np.append(np.repeat(count, count), 0)[lo], 0)
    first = np.cumsum(width) - width
    member_row = np.arange(int(width.sum())) - np.repeat(first - lo, width)
    # the pairs run author-major, so an author's rank counts the author changes before it
    rank = np.cumsum(author != np.concatenate([author[:1], author[:-1]]))
    pair = np.repeat(rank * cats.size, width) + member_category[member_row]
    order = np.argsort(pair, kind="stable")
    pair, author = pair[order], np.repeat(author, width)[order]
    starts = _run_starts(pair)
    return EditLog(
        author=author[starts],
        category=cats[pair[starts] % cats.size],
        count=np.add.reduceat(np.repeat(weight, width)[order], starts),
    )


def _only(log: EditLog, category: int) -> EditLog:
    """The rows of `category`."""
    rows = log.category == category
    return EditLog(log.author[rows], log.category[rows], log.count[rows])


def _ranking(log: EditLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(author, category, count) rows by ascending category, then descending
    count, then ascending author id."""
    order = np.lexsort((log.author, -log.count, log.category))
    return log.author[order], log.category[order], log.count[order]


def edits_per_author(log: EditLog, category: int) -> float:
    """Total category edits divided by its distinct authors."""
    return category_stats(log, category, include_anonymous=True).ea_bar


def pareto_share(
    log: EditLog, category: int, top_fraction: float = 0.2, include_anonymous: bool = False
) -> float:
    """Edit share of the top `top_fraction` of the category's authors."""
    return category_stats(log, category, top_fraction, include_anonymous).top_fraction_share


def top_k_share(log: EditLog, category: int, k: int = 1, include_anonymous: bool = False) -> float:
    """Edit share of the k most active authors in the category."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    author, _, count = _ranking(_only(log, category))
    if not include_anonymous:
        count = count[author != ANONYMOUS_AUTHOR]
    if not count.size:
        raise EmptyCategory(f"category {category} has no edits")
    return int(count[:k].sum()) / int(count.sum())


def category_stats(
    log: EditLog, category: int, top_fraction: float = 0.2, include_anonymous: bool = False
) -> CategoryStats:
    """All per-category statistics in one record.

    Edit and author counts cover every author in the resolved log; the
    share columns honor `include_anonymous`.
    """
    stats = category_report(_only(log, category), top_fraction, include_anonymous)
    if not stats:
        raise EmptyCategory(f"category {category} has no edits")
    return stats[0]


def category_report(
    log: EditLog, top_fraction: float = 0.2, include_anonymous: bool = False
) -> list[CategoryStats]:
    """Statistics of every category with edits, ascending by id, from one
    ranking of the rows.

    A category whose only edits are anonymous has no ranking without
    `include_anonymous` and is skipped.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise InvalidFraction(f"top_fraction must be in (0, 1], got {top_fraction}")
    author, cat, count = _ranking(log)
    if not count.size:
        return []
    starts = _run_starts(cat)
    totals = zip(np.add.reduceat(count, starts).tolist(), np.diff(starts, append=cat.size).tolist())
    edits_authors = dict(zip(cat[starts].tolist(), totals))
    if not include_anonymous:
        named = author != ANONYMOUS_AUTHOR
        cat, count = cat[named], count[named]
        starts = _run_starts(cat)
    # the head of a ranked group is a difference of two prefix sums
    sizes = np.diff(starts, append=cat.size)
    prefix = np.concatenate([[0], np.cumsum(count)])
    heads = np.ceil(top_fraction * sizes).astype(np.int64)
    base = prefix[starts]
    columns = (
        cat[starts].tolist(),
        (prefix[starts + heads] - base).tolist(),
        (prefix[starts + 1] - base).tolist(),
        (prefix[starts + sizes] - base).tolist(),
    )
    report = []
    for category_id, head, top1, total in zip(*columns):
        n_edits, n_authors = edits_authors[category_id]
        report.append(CategoryStats(category_id, n_edits, n_authors, n_edits / n_authors, head / total, top1 / total))
    return report


def _author_runs(log: EditLog) -> tuple[np.ndarray, np.ndarray]:
    """First row and row count of each author's run of rows."""
    if not log.count.size:
        raise EmptyLog("the resolved edit log is empty")
    starts = _run_starts(log.author)
    return starts, np.diff(starts, append=log.author.size)


def active_category_histogram(log: EditLog) -> dict[int, int]:
    """Map active-category count -> number of authors with that count."""
    active, authors = np.unique(_author_runs(log)[1], return_counts=True)
    return dict(zip(active.tolist(), authors.tolist()))


def build_profiles(log: EditLog) -> list[AuthorProfile]:
    """Per-author category counts, sorted by author id."""
    starts, sizes = _author_runs(log)
    cats, counts = log.category.tolist(), log.count.tolist()
    return [
        AuthorProfile(a, dict(zip(cats[s : s + n], counts[s : s + n])), sum(counts[s : s + n]))
        for a, s, n in zip(log.author[starts].tolist(), starts.tolist(), sizes.tolist())
    ]


def max_share(profile: AuthorProfile) -> float:
    """Share of the author's edits going to their most-edited category."""
    if profile.total_edits < 1:
        raise EmptyProfile(f"author {profile.author_id} has no edits")
    return max(profile.edits_per_category.values()) / profile.total_edits


def author_entropy(profile: AuthorProfile) -> float:
    """Shannon entropy (bits) of the author's edits over categories."""
    if profile.total_edits < 1:
        raise EmptyProfile(f"author {profile.author_id} has no edits")
    total = profile.total_edits
    return -math.fsum(
        (c / total) * math.log2(c / total) for c in profile.edits_per_category.values() if c > 0
    )


def entropy_report(log: EditLog) -> EntropyReport:
    """Entropy per author (anonymous aggregate included) with summary.

    Each entropy is :func:`author_entropy` of the author's profile: every
    term is `p * math.log2(p)` and each author's terms are summed with
    `math.fsum`, which numpy's vectorized log2 and pairwise sums would
    not reproduce to the last bit.
    """
    starts, sizes = _author_runs(log)
    # an int64 quotient of two counts below 2**53 rounds as Python's int / int
    share = log.count / np.repeat(np.add.reduceat(log.count, starts), sizes)
    terms = [p * math.log2(p) for p in share.tolist()]
    values = [-math.fsum(terms[s : s + n]) for s, n in zip(starts.tolist(), sizes.tolist())]
    return EntropyReport(
        entries=tuple(zip(log.author[starts].tolist(), values)),
        min_entropy=min(values),
        max_entropy=max(values),
        mean_entropy=math.fsum(values) / len(values),
    )


def _bin_values(values: Sequence[float] | np.ndarray, bin_width: float) -> list[tuple[float, float, int]]:
    if not 0 < bin_width < math.inf:
        raise DomainError(f"bin_width must be finite and > 0, got {bin_width}")
    values = np.asarray(values, dtype=np.float64)
    span = float(values.max()) / bin_width
    if not span < MAX_HISTOGRAM_BINS:
        raise DomainError(f"bin_width {bin_width} needs more than {MAX_HISTOGRAM_BINS} bins")
    n_bins = max(1, math.floor(span) + 1)
    # astype truncates toward zero, as int() does
    counts = np.bincount(np.minimum((values / bin_width).astype(np.int64), n_bins - 1), minlength=n_bins)
    return [(i * bin_width, (i + 1) * bin_width, c) for i, c in enumerate(counts.tolist())]


def entropy_histogram(report: EntropyReport, bin_width: float = 0.25) -> list[tuple[float, float, int]]:
    """Bin author entropies into [i*w, (i+1)*w) intervals."""
    return _bin_values([h for _, h in report.entries], bin_width)


def max_share_histogram(log: EditLog, bin_width: float = 0.05) -> list[tuple[float, float, int]]:
    """Bin every author's maximum-contribution share; the single-edit
    authors all land in the top bin at 1.0."""
    starts, _ = _author_runs(log)
    return _bin_values(np.maximum.reduceat(log.count, starts) / np.add.reduceat(log.count, starts), bin_width)
