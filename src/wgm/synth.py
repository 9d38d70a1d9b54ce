"""Seeded synthetic generators: preferential-attachment and uniform
random graphs, plus a Zipf-activity edit log. These are the oracles the
estimators and fitters are validated against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec
from .graph import ArticleGraph, build_graph
from .ingest import CategoryMap, EditRecord

__all__ = [
    "SyntheticEdits",
    "generate_preferential",
    "generate_uniform",
    "generate_zipf_edits",
]


class SyntheticEdits(NamedTuple):
    records: list[EditRecord]
    category_map: CategoryMap


def generate_preferential(n: int, m: int, seed: int) -> ArticleGraph:
    """Directed preferential-attachment graph.

    Starts from a bidirectional clique on m+1 nodes (so n = m+1 is just
    the clique, and the degree pool is never empty); each later node
    sends m edges to distinct existing nodes picked with probability
    proportional to current total degree (uniform position in the
    edge-endpoint multiset, with rejection to keep targets distinct).
    """
    if not 1 <= m < n:
        raise InvalidSpec(f"preferential attachment needs 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)

    edges: list[tuple[int, int]] = []
    endpoints: list[int] = []
    for u in range(m + 1):
        for v in range(m + 1):
            if u != v:
                edges.append((u, v))
                endpoints.append(u)
                endpoints.append(v)

    for u in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            t = int(endpoints[rng.integers(0, len(endpoints))])
            if t != u:
                targets.add(t)
        for t in sorted(targets):
            edges.append((u, t))
            endpoints.append(u)
            endpoints.append(t)

    return build_graph(np.array(edges, dtype=np.int64), n)


def _pair_from_index(j: int, n: int) -> tuple[int, int]:
    """j-th ordered pair (u, v), u != v, in lexicographic order."""
    u, r = divmod(j, n - 1)
    return u, r + 1 if r >= u else r


def generate_uniform(n: int, p: float, seed: int) -> ArticleGraph:
    """G(n, p) over ordered pairs: each (u, v), u != v, is an edge
    independently with probability p. Sparse geometric skipping keeps
    the cost proportional to the edge count.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidSpec(f"uniform random needs 0 <= p <= 1, got p={p}")
    if n < 0:
        raise InvalidSpec(f"need n >= 0, got {n}")
    pair_count = n * (n - 1)
    edges: list[tuple[int, int]] = []
    if p >= 1.0:
        edges = [_pair_from_index(j, n) for j in range(pair_count)]
    elif p > 0.0 and pair_count > 0:
        rng = np.random.default_rng(seed)
        log_q = math.log1p(-p)
        j = -1
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if j >= pair_count:
                break
            edges.append(_pair_from_index(j, n))
    return build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n)


def generate_zipf_edits(
    n_authors: int,
    n_categories: int,
    total_edits: int,
    s: float,
    seed: int,
    home_bias: float = 0.8,
) -> SyntheticEdits:
    """Edit log with Zipf-rank author activity and home-category mixing.

    Author i (ids start at 1; 0 stays reserved for the anonymous
    aggregate) makes each edit with probability proportional to
    rank^-s. Every author gets a home category; each of its edits goes
    there with probability `home_bias`, else uniformly to one of the
    other categories. One article per category (article id == category
    id), so the returned category map makes every edit resolvable.
    """
    if n_authors < 1 or n_categories < 1 or total_edits < 1:
        raise InvalidSpec("n_authors, n_categories and total_edits must all be >= 1")
    if not s > 0:
        raise InvalidSpec(f"need s > 0, got {s}")
    if not 0.0 <= home_bias <= 1.0:
        raise InvalidSpec(f"need 0 <= home_bias <= 1, got {home_bias}")

    rng = np.random.default_rng(seed)
    weights = np.arange(1, n_authors + 1, dtype=float) ** -s
    weights /= weights.sum()
    authors = rng.choice(n_authors, size=total_edits, p=weights) + 1
    home = rng.integers(0, n_categories, size=n_authors)

    stay = rng.random(total_edits) < home_bias
    drift = rng.integers(0, max(n_categories - 1, 1), size=total_edits)
    h = home[authors - 1]
    # a drifting edit goes to one of the other categories: skip past the home one
    cats = np.where(stay | (n_categories == 1), h, drift + (drift >= h))

    records = list(map(EditRecord, authors.tolist(), cats.tolist()))
    catmap = CategoryMap(
        article_to_categories={c: frozenset([c]) for c in range(n_categories)},
        category_names={c: f"cat{c:02d}" for c in range(n_categories)},
    )
    return SyntheticEdits(records=records, category_map=catmap)
