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
from dataclasses import dataclass

from .errors import (
    DomainError,
    EmptyCategory,
    EmptyCategorySelection,
    EmptyLog,
    EmptyProfile,
    InvalidFraction,
)
from .ingest import CategoryMap, EditRecord

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


@dataclass(frozen=True)
class EditLog:
    """Category-resolved edit counts.

    `resolved` maps (author_id, category_id) to an edit count; an edit
    to an article in k selected categories contributes one count to
    each of the k.
    """

    resolved: dict[tuple[int, int], int]
    categories: frozenset[int]

    def authors(self) -> list[int]:
        return sorted({a for a, _ in self.resolved})


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

    @property
    def max_share(self) -> float:
        return max_share(self)

    @property
    def entropy(self) -> float:
        return author_entropy(self)


@dataclass(frozen=True)
class EntropyReport:
    entries: tuple[tuple[int, float], ...]
    min_entropy: float
    max_entropy: float
    mean_entropy: float


def resolve_edits(
    records: list[EditRecord], catmap: CategoryMap, categories: frozenset[int] | set[int]
) -> EditLog:
    """Attribute raw edits to the selected categories.

    Edits to articles outside every selected category are dropped.
    """
    if not categories:
        raise EmptyCategorySelection("need at least one selected category")
    selected = frozenset(categories)
    resolved: dict[tuple[int, int], int] = {}
    for rec in records:
        for cat in catmap.article_to_categories.get(rec.article_id, frozenset()) & selected:
            key = (rec.author_id, cat)
            resolved[key] = resolved.get(key, 0) + 1
    return EditLog(resolved=resolved, categories=selected)


def _ranked_authors(log: EditLog, category: int, include_anonymous: bool) -> list[tuple[int, int]]:
    """(author, count) for one category, by descending count then ascending id."""
    counts = [
        (author, count)
        for (author, cat), count in log.resolved.items()
        if cat == category and (include_anonymous or author != ANONYMOUS_AUTHOR)
    ]
    if not counts:
        raise EmptyCategory(f"category {category} has no edits")
    counts.sort(key=lambda ac: (-ac[1], ac[0]))
    return counts


def edits_per_author(log: EditLog, category: int) -> float:
    """Total category edits divided by its distinct authors."""
    ranked = _ranked_authors(log, category, include_anonymous=True)
    return sum(c for _, c in ranked) / len(ranked)


def pareto_share(
    log: EditLog, category: int, top_fraction: float = 0.2, include_anonymous: bool = False
) -> float:
    """Edit share of the top `top_fraction` of the category's authors."""
    if not 0.0 < top_fraction <= 1.0:
        raise InvalidFraction(f"top_fraction must be in (0, 1], got {top_fraction}")
    ranked = _ranked_authors(log, category, include_anonymous)
    head = math.ceil(top_fraction * len(ranked))
    return sum(c for _, c in ranked[:head]) / sum(c for _, c in ranked)


def top_k_share(log: EditLog, category: int, k: int = 1, include_anonymous: bool = False) -> float:
    """Edit share of the k most active authors in the category."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ranked = _ranked_authors(log, category, include_anonymous)
    return sum(c for _, c in ranked[:k]) / sum(c for _, c in ranked)


def category_stats(
    log: EditLog, category: int, top_fraction: float = 0.2, include_anonymous: bool = False
) -> CategoryStats:
    """All per-category statistics in one record.

    Edit and author counts cover every author in the resolved log; the
    share columns honor `include_anonymous`.
    """
    ranked = _ranked_authors(log, category, include_anonymous=True)
    n_edits = sum(c for _, c in ranked)
    return CategoryStats(
        category_id=category,
        n_edits=n_edits,
        n_authors=len(ranked),
        ea_bar=n_edits / len(ranked),
        top_fraction_share=pareto_share(log, category, top_fraction, include_anonymous),
        top1_share=top_k_share(log, category, 1, include_anonymous),
    )


def category_report(
    log: EditLog, top_fraction: float = 0.2, include_anonymous: bool = False
) -> list[CategoryStats]:
    """Statistics of every category with edits, ascending by id.

    A category whose only edits are anonymous has no ranking without
    `include_anonymous` and is skipped.
    """
    report = []
    for cat in sorted({c for _, c in log.resolved}):
        try:
            report.append(category_stats(log, cat, top_fraction, include_anonymous))
        except EmptyCategory:
            continue
    return report


def active_category_histogram(log: EditLog) -> dict[int, int]:
    """Map active-category count -> number of authors with that count."""
    if not log.resolved:
        raise EmptyLog("the resolved edit log is empty")
    active: dict[int, int] = {}
    for author, _ in log.resolved:
        active[author] = active.get(author, 0) + 1
    hist: dict[int, int] = {}
    for n in active.values():
        hist[n] = hist.get(n, 0) + 1
    return hist


def build_profiles(log: EditLog) -> list[AuthorProfile]:
    """Per-author category counts, sorted by author id."""
    if not log.resolved:
        raise EmptyLog("the resolved edit log is empty")
    by_author: dict[int, dict[int, int]] = {}
    for (author, cat), count in log.resolved.items():
        by_author.setdefault(author, {})[cat] = count
    return [
        AuthorProfile(author_id=a, edits_per_category=cats, total_edits=sum(cats.values()))
        for a, cats in sorted(by_author.items())
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
    """Entropy per author (anonymous aggregate included) with summary."""
    profiles = build_profiles(log)
    entries = tuple((p.author_id, author_entropy(p)) for p in profiles)
    values = [h for _, h in entries]
    return EntropyReport(
        entries=entries,
        min_entropy=min(values),
        max_entropy=max(values),
        mean_entropy=math.fsum(values) / len(values),
    )


def _bin_values(values: list[float], bin_width: float) -> list[tuple[float, float, int]]:
    if bin_width <= 0:
        raise DomainError(f"bin_width must be > 0, got {bin_width}")
    span = max(values) / bin_width
    if not span < MAX_HISTOGRAM_BINS:
        raise DomainError(f"bin_width {bin_width} needs more than {MAX_HISTOGRAM_BINS} bins")
    n_bins = max(1, math.floor(span) + 1)
    counts = [0] * n_bins
    for v in values:
        counts[min(int(v / bin_width), n_bins - 1)] += 1
    return [(i * bin_width, (i + 1) * bin_width, c) for i, c in enumerate(counts)]


def entropy_histogram(report: EntropyReport, bin_width: float = 0.25) -> list[tuple[float, float, int]]:
    """Bin author entropies into [i*w, (i+1)*w) intervals."""
    return _bin_values([h for _, h in report.entries], bin_width)


def max_share_histogram(log: EditLog, bin_width: float = 0.05) -> list[tuple[float, float, int]]:
    """Bin every author's maximum-contribution share; the single-edit
    authors all land in the top bin at 1.0."""
    return _bin_values([max_share(p) for p in build_profiles(log)], bin_width)
