"""Seeded synthetic generators: preferential-attachment and uniform
random graphs, plus a Zipf-activity edit log. These are the oracles the
estimators and fitters are validated against.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterator, NamedTuple

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

BLOCK = 1 << 12  # values drawn per call


class SyntheticEdits(NamedTuple):
    records: list[EditRecord]
    category_map: CategoryMap


def _stream(draw: Callable[[int], np.ndarray], size: int) -> Iterator:
    """The values of endless `draw(size)` calls: one scalar draw's stream."""
    while True:
        yield from draw(size).tolist()


def _bounded(draw: Callable[[], int], b: int) -> int:
    """numpy's scalar `rng.integers(0, b)`, 2 <= b < 2**32, by Lemire's method on 32-bit `draw()`s."""
    x = draw() * b
    while x & 0xFFFFFFFF < b and x & 0xFFFFFFFF < (2**32 - b) % b:  # b first skips the modulo
        x = draw() * b
    return x >> 32


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
    if m * n >= 2**31:  # keeps every pool size 2*m*u below 2**32, as `_bounded` needs
        raise InvalidSpec(f"preferential attachment needs m*n < 2**31, got m*n={m * n}")
    raw = np.random.default_rng(seed).bit_generator.random_raw
    # numpy's 32-bit draws take each raw PCG64 word's low half, then its high half
    draw = _stream(lambda k: raw(k).astype("<u8", copy=False).view("<u4"), min(BLOCK, m * n // 2 + 1)).__next__
    edges = np.zeros((m * n, 2), dtype=np.int64)  # node u's m edges start at row m*u
    edges[: m * (m + 1)] = np.argwhere(~np.eye(m + 1, dtype=bool))
    edges[m * (m + 1) :, 0] = np.arange(m + 1, n).repeat(m)
    pool = memoryview(edges).cast("B").cast("q")  # the flattened edges are the endpoint multiset
    for u in range(m + 1, n):
        b = 2 * m * u  # the pool's size
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(pool[_bounded(draw, b)])
        pool[b + 1 : b + 2 * m : 2] = array("q", sorted(targets))
    return build_graph(edges, n)


def generate_uniform(n: int, p: float, seed: int) -> ArticleGraph:
    """G(n, p) over ordered pairs: each (u, v), u != v, is an edge
    independently with probability p. Sparse geometric skipping keeps
    the cost proportional to the edge count."""
    if not 0.0 <= p <= 1.0:
        raise InvalidSpec(f"uniform random needs 0 <= p <= 1, got p={p}")
    if n < 0:
        raise InvalidSpec(f"need n >= 0, got {n}")
    pair_count = n * (n - 1)
    hits = array("q")
    if 0.0 < p < 1.0 and pair_count > 0:
        # clamped, no skip overflows to inf; below p = 1e-300 only r == 0 gives an edge either way
        log_q, j = min(math.log1p(-p), -1e-300), -1
        for r in _stream(np.random.default_rng(seed).random, min(BLOCK, int(p * pair_count) + 1)):
            # math.log, not np.log: they can differ by an ulp, which can flip the int()
            j += 1 + int(math.log(1.0 - r) / log_q)
            if j >= pair_count:
                break
            hits.append(j)
    j = np.arange(pair_count, dtype=np.int64) if p >= 1.0 else np.frombuffer(hits, dtype=np.int64)
    u, r = np.divmod(j, max(n - 1, 1))  # pair index j: the j-th ordered pair (u, v), u != v
    return build_graph(np.stack([u, r + (r >= u)], axis=1), n)


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
    names = {c: f"cat{c:02d}" for c in range(n_categories)}
    return SyntheticEdits(records, CategoryMap(category_names=names, pairs=np.arange(n_categories).repeat(2)))
