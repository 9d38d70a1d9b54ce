"""Independent reference implementations used only to check the library.

Everything here is deliberately written with a different algorithm (and
usually a different data layout) than the code under test: plain dict /
set scans, O(n^3) triple loops, dense matrix algebra, Floyd-Warshall.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from wgm.errors import InvalidSpec
from wgm.graph import build_graph


def degrees_by_edge_scan(edges, node_count):
    """(indegree, outdegree) per node by scanning the raw edge list."""
    indeg = [0] * node_count
    outdeg = [0] * node_count
    for src, dst in edges:
        outdeg[src] += 1
        indeg[dst] += 1
    return indeg, outdeg


def undirected_sets(edges, node_count):
    """Neighbor sets of the undirected projection."""
    nbrs = [set() for _ in range(node_count)]
    for src, dst in edges:
        if src != dst:
            nbrs[src].add(dst)
            nbrs[dst].add(src)
    return nbrs


def clustering_triple_loop(edges, node_count):
    """Local coefficients by enumerating all node triples. O(n^3)."""
    nbrs = undirected_sets(edges, node_count)
    coeffs = []
    for u in range(node_count):
        d = len(nbrs[u])
        if d < 2:
            coeffs.append(0.0)
            continue
        closed = 0
        for v in range(node_count):
            for w in range(node_count):
                if v != w and v in nbrs[u] and w in nbrs[u] and w in nbrs[v]:
                    closed += 1
        coeffs.append(closed / (d * (d - 1)))
    return coeffs


def clustering_dense_matrix(edges, node_count):
    """Local coefficients via the dense adjacency cube.

    triangles through u = (A @ A * A).sum(axis=1) / 2 on the symmetric
    0/1 matrix; equivalent to brute force over all ordered triples.
    """
    a = np.zeros((node_count, node_count))
    for src, dst in edges:
        if src != dst:
            a[src, dst] = 1.0
            a[dst, src] = 1.0
    deg = a.sum(axis=1)
    closed = ((a @ a) * a).sum(axis=1)  # = 2 * triangles per node
    denom = deg * (deg - 1)
    return np.divide(closed, denom, out=np.zeros(node_count), where=denom > 0)


def classify_sort_scan(indegs, outdegs, percentile):
    """Quadrant counts by explicit sort, nearest-rank pick, and scan."""
    def threshold(values):
        ordered = sorted(values)
        rank = math.ceil(percentile * len(ordered))
        return ordered[max(rank, 1) - 1]

    thr_in = threshold(indegs)
    thr_out = threshold(outdegs)
    counts = {"all_round": 0, "referring": 0, "guru": 0, "regular": 0}
    for i, o in zip(indegs, outdegs):
        hi, ho = i > thr_in, o > thr_out
        if hi and ho:
            counts["all_round"] += 1
        elif hi:
            counts["guru"] += 1
        elif ho:
            counts["referring"] += 1
        else:
            counts["regular"] += 1
    return counts, thr_in, thr_out


def adjacency_dicts(edges, node_count, directed):
    adj = {u: [] for u in range(node_count)}
    seen = set()
    for src, dst in edges:
        if src == dst:
            continue
        pairs = [(src, dst)] if directed else [(src, dst), (dst, src)]
        for a, b in pairs:
            if (a, b) not in seen:
                seen.add((a, b))
                adj[a].append(b)
    return adj


def bfs_dict(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_mean_bfs(edges, node_count, directed):
    """(mean distance over reachable ordered pairs, reachable count)."""
    adj = adjacency_dicts(edges, node_count, directed)
    total = 0
    reachable = 0
    for s in range(node_count):
        for t, d in bfs_dict(adj, s).items():
            if t != s:
                total += d
                reachable += 1
    return (total / reachable if reachable else math.nan), reachable


def all_pairs_mean_floyd_warshall(edges, node_count, directed):
    """Same quantity via min-plus matrix relaxation."""
    inf = np.inf
    dist = np.full((node_count, node_count), inf)
    np.fill_diagonal(dist, 0.0)
    for src, dst in edges:
        if src != dst:
            dist[src, dst] = 1.0
            if not directed:
                dist[dst, src] = 1.0
    for k in range(node_count):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    off = ~np.eye(node_count, dtype=bool)
    finite = np.isfinite(dist) & off
    reachable = int(finite.sum())
    return (float(dist[finite].sum()) / reachable if reachable else math.nan), reachable


def fit_loglog_polyfit(entries, x_min):
    """Count-weighted log-log slope via numpy.polyfit (w = sqrt weight)."""
    ks = sorted(k for k, n in entries.items() if k >= x_min and n > 0)
    k = np.array(ks, dtype=float)
    n = np.array([entries[v] for v in ks], dtype=float)
    slope, intercept = np.polyfit(np.log(k), np.log(n), 1, w=np.sqrt(n))
    return -slope, intercept


def powerlaw_inverse_cdf_draws(alpha, size, seed, k_max=10**6):
    """i.i.d. draws from P(k) proportional to k^-alpha, k >= 1."""
    ks = np.arange(1, k_max + 1, dtype=float)
    weights = ks**-alpha
    cdf = np.cumsum(weights) / weights.sum()
    u = np.random.default_rng(seed).random(size)
    return np.searchsorted(cdf, u) + 1


def resolve_double_loop(records, article_to_categories, selected):
    """(author, category) -> count by a plain nested loop."""
    out = {}
    for rec in records:
        for cat in selected:
            if cat in article_to_categories.get(rec.article_id, ()):
                out[(rec.author_id, cat)] = out.get((rec.author_id, cat), 0) + 1
    return out


def entropy_direct(counts):
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p, 2)
    return acc


def share_of_top(counts_by_author, head):
    """Share of the `head` largest counts (ties by ascending author id)."""
    ranked = sorted(counts_by_author.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(counts_by_author.values())
    return sum(c for _, c in ranked[:head]) / total


# The scalar-draw generators `wgm.synth` used before it drew its randomness
# in blocks, kept unchanged: one `rng.integers` or `rng.random` call per draw.
# The block generators must give exactly their edges.


def generate_preferential_scalar(n: int, m: int, seed: int):
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


def generate_uniform_scalar(n: int, p: float, seed: int):
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


def filter_by_dict(records, edges):
    """`filter_main_namespace` by an id -> new id dict: (kept records, edges),
    or ("unknown", 1-based edge ordinal, id) for the first unknown endpoint."""
    row_of = {r.id: i for i, r in enumerate(records)}
    kept = [r for r in records if r.namespace == 0]
    new_id = {r.id: i for i, r in enumerate(kept)}
    out = []
    for k, (src, dst) in enumerate(edges, start=1):
        for end in (src, dst):
            if end not in row_of:
                return ("unknown", k, end)
        if src in new_id and dst in new_id:
            out.append([new_id[src], new_id[dst]])
    return kept, out
