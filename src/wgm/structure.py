"""Clustering coefficients (exact and node-sampled with convergence
traces) and sampled shortest-path length.

Clustering works on the undirected projection of the graph (u~v iff
u->v or v->u) with the standard local coefficient; nodes with fewer
than two neighbors contribute 0, so the sampling target equals the
plain mean over all nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyGraph, SingleNode
from .graph import ArticleGraph, _csr, _keys, _run_starts

__all__ = [
    "ClusteringTrace",
    "PathSampleResult",
    "local_clustering",
    "exact_clustering",
    "sampled_clustering",
    "sampled_avg_path",
]


@dataclass(frozen=True)
class ClusteringTrace:
    """Running-average clustering estimates along a sampling run."""

    estimates: tuple[tuple[int, float], ...]
    final_estimate: float
    seed: int


@dataclass(frozen=True)
class PathSampleResult:
    mean_path_length: float
    reachable_pairs: int
    sampled_pairs: int
    unreachable_fraction: float
    seed: int


# Beamer's direction switch: every word of a batch pulls over the reverse CSR once
# the frontier's out-edges per word exceed 1/alpha of all edges, else all push
_PULL_ALPHA = 14
_LANES = 64  # BFS sources per uint64 word
_WORDS = 8  # words of sources in flight per BFS batch
_DENSE_BUDGET = 1 << 20  # bound on words * nodes, the size of each dense BFS buffer
_WEDGE_BLOCK = 1 << 12  # wedges per block of the triangle kernel
_TRACE_STRIDE = 100  # samples between the marks of a clustering trace
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _expand(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of every CSR entry of `rows`, row after row, and the row sizes."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts), counts


def _coefficients(graph: ArticleGraph) -> np.ndarray:
    """Local coefficient of every node from one vectorized triangle count.

    Each undirected edge is oriented from the lower to the higher
    (degree, id) rank, so a triangle is found exactly once: from the wedge
    a->b->c whose closing edge a->c is looked up by `searchsorted` on
    `a*n + c` keys. Wedges are enumerated in fixed-size blocks to bound
    memory. links = 2 * triangles, divided as links / (deg*(deg-1)).
    """
    indptr, indices = graph.undirected_csr()
    n = graph.node_count
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    up = np.repeat(rank, deg) < rank[indices]
    keys = _keys(indptr, indices)[up]  # a*n + b, ascending
    optr, tail = _csr(keys, n)
    wedges = np.cumsum(np.diff(optr)[tail])

    triangles = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < keys.size:
        base = int(wedges[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(wedges, base + _WEDGE_BLOCK, side="right")))
        pos, counts = _expand(optr, tail[lo:hi])
        a = np.repeat(keys[lo:hi] // n, counts)
        c = tail[pos]
        probe = a * n + c
        closed = keys[np.minimum(np.searchsorted(keys, probe), keys.size - 1)] == probe
        corners = (a[closed], np.repeat(tail[lo:hi], counts)[closed], c[closed])
        nodes, hits = np.unique(np.concatenate(corners), return_counts=True)
        triangles[nodes] += hits
        lo = hi

    coeff = np.zeros(n)
    np.divide(2 * triangles, deg * (deg - 1), out=coeff, where=deg >= 2)
    return coeff


def local_clustering(graph: ArticleGraph, node: int) -> float:
    """Watts-Strogatz local coefficient on the undirected projection."""
    graph.undirected_neighbors(node)  # range check
    return float(_coefficients(graph)[int(node)])


def exact_clustering(graph: ArticleGraph) -> float:
    """Mean local coefficient over every node."""
    if graph.node_count == 0:
        raise EmptyGraph("clustering of an empty graph is undefined")
    return math.fsum(_coefficients(graph).tolist()) / graph.node_count


def sampled_clustering(graph: ArticleGraph, n_samples: int, seed: int) -> ClusteringTrace:
    """Estimate the mean clustering by uniform node sampling.

    Nodes are drawn with replacement from a generator seeded with
    `seed`; the running mean is recorded every _TRACE_STRIDE samples
    and at the end. Identical (graph, n_samples, seed) runs produce
    identical traces.
    """
    if graph.node_count == 0:
        raise EmptyGraph("cannot sample nodes of an empty graph")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")

    coeff = _coefficients(graph)
    rng = np.random.default_rng(seed)
    running = coeff[rng.integers(0, graph.node_count, size=n_samples)]
    np.cumsum(running, out=running)
    running /= np.arange(1, n_samples + 1)
    marks = list(range(_TRACE_STRIDE - 1, n_samples, _TRACE_STRIDE))
    if not marks or marks[-1] != n_samples - 1:
        marks.append(n_samples - 1)
    estimates = tuple((m + 1, float(running[m])) for m in marks)
    return ClusteringTrace(estimates=estimates, final_estimate=float(running[-1]), seed=seed)


def _push(keys, nodes, bits, unseen, push):
    """Push the frontier entries (key, bits), key = word*n + node with the
    node in `nodes`, along the out-edges: the new entries, keys ascending,
    with their bits cleared from `unseen`."""
    pos, counts = _expand(push[0], nodes)
    reached = np.repeat(keys - nodes, counts)
    reached += push[1][pos]
    new = np.repeat(bits, counts)
    new &= unseen[reached]
    live = np.flatnonzero(new)
    reached, new = reached[live], new[live]
    order = np.argsort(reached)
    reached = reached[order]
    heads = _run_starts(reached)
    keys, bits = reached[heads], np.bitwise_or.reduceat(new[order], heads)
    unseen[keys] ^= bits
    return keys, bits


def _pull(row, out, unseen, pull) -> None:
    """Pull one word's dense frontier `row` over the reverse CSR: `out`
    (zeroed) gets the bits that first reach each node, cleared from
    `unseen`."""
    rows, starts, sources = pull
    out[rows] = np.bitwise_or.reduceat(row[sources], starts)
    out &= unseen
    unseen ^= out


def _advance(keys, bits, frontier, nxt, unseen, push, pull, outdeg):
    """One BFS level of every word of a batch, all pushing or all pulling.

    The frontier is its ascending non-zero keys with their `bits`, or dense
    in `frontier` when `bits` is None. Beamer's test on the batch's mean word
    (see _PULL_ALPHA) picks the direction; a pushed frontier stays sparse, a
    pulled one is dense in the returned buffer. Returns (keys, bits,
    frontier, nxt) for the next level.
    """
    n = outdeg.size
    nodes = keys % n
    if _PULL_ALPHA * int(outdeg[nodes].sum()) <= unseen.size // n * push[1].size:
        return (*_push(keys, nodes, frontier[keys] if bits is None else bits, unseen, push), frontier, nxt)
    if bits is not None:
        frontier.fill(0)
        frontier[keys] = bits
    nxt.fill(0)
    for lo in range(0, unseen.size, n):
        _pull(frontier[lo : lo + n], nxt[lo : lo + n], unseen[lo : lo + n], pull)
    return np.flatnonzero(nxt), None, nxt, frontier


def _distance_counts(push, pull, pairs: np.ndarray | None) -> np.ndarray:
    """`counts[d]`, the reachable ordered pairs d hops apart, with no trailing zeros.

    `pairs` holds sorted keys s*n + t; None stands for every ordered pair.
    Bitset multi-source BFS: up to _WORDS * 64 distinct sources run at
    once; source i owns bit i % 64 of word i // 64, and node v of word j
    has the key j*n + v in the dense `unseen` array. Each level pushes or
    pulls every word of the batch (see `_advance`). A batch stops once all
    its targets are settled.
    """
    n = push[0].size - 1
    if pairs is None:
        sources = np.arange(n)
    else:
        heads = _run_starts(pairs // n)
        sources = pairs[heads] // n
        bounds = np.append(heads, pairs.size)
    rows = np.flatnonzero(np.diff(pull[0]))
    pull = (rows, pull[0][rows], pull[1])
    group = _LANES * max(1, min(_WORDS, _DENSE_BUDGET // n))
    size = -(-min(group, sources.size) // _LANES) * n
    buffers = [np.empty(size, dtype=np.uint64) for _ in range(3)]
    outdeg = np.diff(push[0])

    counts = np.zeros(n + 1, dtype=np.int64)  # a batch runs one level past its deepest hit
    for b in range(0, sources.size, group):
        lanes = sources[b : b + group]
        lane = np.arange(lanes.size)
        words = -(-lanes.size // _LANES)
        unseen, frontier, nxt = (buf[: words * n] for buf in buffers)
        keys = (lane // _LANES) * n + lanes
        bits = np.left_shift(np.uint64(1), (lane % _LANES).astype(np.uint64))
        unseen.fill(~np.uint64(0))
        unseen[keys] ^= bits
        if pairs is not None:
            batch = pairs[bounds[b] : bounds[b + lanes.size]]
            lane = np.searchsorted(lanes, batch // n)
            targets = (lane // _LANES) * n + batch % n
            target_bits = np.left_shift(np.uint64(1), (lane % _LANES).astype(np.uint64))
        depth = 0
        while keys.size and (pairs is None or targets.size):
            depth += 1
            keys, bits, frontier, nxt = _advance(keys, bits, frontier, nxt, unseen, push, pull, outdeg)
            if pairs is None:
                found = frontier[keys] if bits is None else bits
                counts[depth] += _POPCOUNT8[found.view(np.uint8)].sum(dtype=np.int64)
            else:
                settled = (unseen[targets] & target_bits) == 0
                counts[depth] += np.count_nonzero(settled)
                targets, target_bits = targets[~settled], target_bits[~settled]
    return np.trim_zeros(counts, "b")


def _draw_pairs(n: int, n_pairs: int, seed: int) -> np.ndarray:
    """Sorted keys s*n + t of `n_pairs` ordered pairs s != t, drawn
    uniformly with replacement."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_pairs)
    dst = rng.integers(0, n, size=n_pairs)
    clash = src == dst
    while clash.any():
        m = int(clash.sum())
        src[clash] = rng.integers(0, n, size=m)
        dst[clash] = rng.integers(0, n, size=m)
        clash = src == dst
    src *= n
    src += dst
    src.sort()
    return src


def sampled_avg_path(
    graph: ArticleGraph,
    n_pairs: int,
    seed: int,
    directed: bool = True,
    exhaustive: bool = False,
) -> PathSampleResult:
    """Mean BFS distance over sampled ordered node pairs.

    Pairs (s, t) with s != t are drawn uniformly with replacement;
    unreachable pairs are excluded from the mean and reported as a
    fraction. With `exhaustive=True` every ordered pair is covered once
    and `n_pairs` is ignored.
    """
    n = graph.node_count
    if n == 0:
        raise EmptyGraph("cannot sample pairs of an empty graph")
    if n == 1:
        raise SingleNode("pair sampling needs at least two nodes")

    push = graph.directed_csr() if directed else graph.undirected_csr()
    pull = graph.in_csr() if directed else push

    if not exhaustive and n_pairs < 1:
        raise DomainError(f"n_pairs must be >= 1, got {n_pairs}")
    sampled, pairs = (n * (n - 1), None) if exhaustive else (n_pairs, _draw_pairs(n, n_pairs, seed))
    counts = _distance_counts(push, pull, pairs).tolist()
    total = sum(d * c for d, c in enumerate(counts))
    reachable = sum(counts)

    mean = total / reachable if reachable else math.nan
    return PathSampleResult(
        mean_path_length=mean,
        reachable_pairs=reachable,
        sampled_pairs=sampled,
        unreachable_fraction=(sampled - reachable) / sampled,
        seed=seed,
    )
