"""Independent reference implementations used only to check the library.

Everything here is deliberately written with a different algorithm (and
usually a different data layout) than the code under test: plain dict /
set scans, O(n^3) triple loops, dense matrix algebra, Floyd-Warshall.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import fields, is_dataclass

import numpy as np

from wgm.degrees import _hurwitz_zeta
from wgm.edits import EditLog
from wgm.errors import EmptyCategorySelection, InvalidSpec, ParseError
from wgm.graph import build_graph
from wgm.ingest import Titles


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


def pair_depths_bfs(edges, node_count, pairs, directed):
    """{hop distance: count} over the reachable ordered `pairs`, by dict BFS."""
    adj = adjacency_dicts(edges, node_count, directed)
    dist = {}
    depths = {}
    for s, t in pairs:
        if s not in dist:
            dist[s] = bfs_dict(adj, s)
        if t in dist[s]:
            depths[dist[s][t]] = depths.get(dist[s][t], 0) + 1
    return depths


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


def power_law_fit_math(entries, x_min=1, mle=False):
    """(alpha, log_prefactor, r_squared) of `fit_power_law`, or with `mle`
    of `fit_power_law_mle`, in Python floats with `math.log` (the zeta
    normalization is wgm's own, which uses no numpy). Its sums run left to
    right, which equals numpy's sums of two points only."""
    points = sorted((k, c) for k, c in entries.items() if k >= x_min and c > 0)
    n = [float(c) for _, c in points]
    x = [math.log(k) for k, _ in points]
    y = [math.log(c) for c in n]
    total = sum(n)
    ybar = sum(c * yi for c, yi in zip(n, y)) / total
    if mle:
        sum_log = sum(c * xi for c, xi in zip(n, x))

        def cost(a):
            return a * sum_log + total * math.log(_hurwitz_zeta(a, float(x_min)))

        lo, hi = 1.0 + 1e-9, 25.0
        step = (math.sqrt(5.0) - 1.0) / 2.0
        u, v = hi - step * (hi - lo), lo + step * (hi - lo)
        fu, fv = cost(u), cost(v)
        while hi - lo > 1e-10:
            if fu < fv:
                hi, v, fv = v, u, fu
                u = hi - step * (hi - lo)
                fu = cost(u)
            else:
                lo, u, fu = u, v, fv
                v = lo + step * (hi - lo)
                fv = cost(v)
        alpha = (lo + hi) / 2.0
        intercept = (sum(c * yi for c, yi in zip(n, y)) + alpha * sum_log) / total
    else:
        xbar = sum(c * xi for c, xi in zip(n, x)) / total
        sxx = sum(c * ((xi - xbar) * (xi - xbar)) for c, xi in zip(n, x))
        slope = sum(c * (xi - xbar) * (yi - ybar) for c, xi, yi in zip(n, x, y)) / sxx
        alpha, intercept = -slope, ybar - slope * xbar
    ss_res = sum(c * ((yi + alpha * xi - intercept) * (yi + alpha * xi - intercept)) for c, xi, yi in zip(n, x, y))
    ss_tot = sum(c * ((yi - ybar) * (yi - ybar)) for c, yi in zip(n, y))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return alpha, intercept, max(0.0, min(1.0, r_squared))


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


# The serializer and the edit resolver `wgm` used before its own JSON encoder
# and one-sort resolution, kept unchanged: `render_json` is `render`'s JSON
# bytes by `json.dumps`, and `resolve_edits_unique` groups with three
# `np.unique` calls. The new code must give exactly their output.


def plain_reference(value):
    """The JSON form of a result.

    A dataclass becomes its fields and properties by name, an int-keyed
    dict its ascending [key, value] rows, a tuple a list, and NaN null.
    """
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (list, tuple)):
        return [plain_reference(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, int) for key in value):
            return [[key, plain_reference(value[key])] for key in sorted(value)]
        return {key: plain_reference(item) for key, item in value.items()}
    if is_dataclass(value):
        names = [f.name for f in fields(value)]
        names += [name for name, attr in vars(type(value)).items() if isinstance(attr, property)]
        return {name: plain_reference(getattr(value, name)) for name in names}
    return value


def render_json(result):
    return json.dumps(plain_reference(result), sort_keys=True, indent=2) + "\n"


# `render`'s CSV before it read rows from the results themselves, kept
# unchanged: a plain copy of the whole result first, then one rule per cell.
# It never quotes, so it is the reference for cells without `,`, `"` or a
# line break only.


def plain_copy(value):
    """The plain copy of a result that `render` made before writing it.

    As `plain_reference`, and a subclass of float, int, str, list, tuple or
    dict (np.float64, say) is made plain as its base type.
    """
    kind = type(value)
    if kind is float:
        return None if value != value else value
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is list or kind is tuple:
        return [plain_copy(item) for item in value]
    if kind is dict:
        if all(isinstance(key, int) for key in value):
            return [[plain_copy(key), plain_copy(value[key])] for key in sorted(value)]
        return {key: plain_copy(item) for key, item in value.items()}
    if is_dataclass(kind):
        names = [f.name for f in fields(kind)]
        names += [name for name, attr in vars(kind).items() if isinstance(attr, property)]
        return {name: plain_copy(getattr(value, name)) for name in names}
    for base in (float, int, str, list, tuple, dict):
        if isinstance(value, base):
            return plain_copy(base(value))
    return value


def render_csv(result, columns=None):
    """The rows of `result` under `columns`, or the flat record `result` as
    sorted `key,value` rows; floats by repr, None and NaN empty."""
    plain = plain_copy(result)
    rows = plain if columns is not None else sorted(plain.items())
    lines = [columns or ("key", "value"), *rows]
    cells = ([repr(v) if isinstance(v, float) else "" if v is None else str(v) for v in row] for row in lines)
    return "".join(",".join(row) + "\n" for row in cells)


def resolve_edits_unique(records, catmap, categories):
    """Attribute raw (author_id, article_id) edits to the selected categories.

    Edits to articles outside every selected category are dropped.
    """
    if not categories:
        raise EmptyCategorySelection("need at least one selected category")
    edits = np.asarray(records if isinstance(records, np.ndarray) else list(records), dtype=np.int64).reshape(-1, 2)
    cats = np.array(sorted(set(categories)), dtype=np.int64)
    # the map's rows in a selected category, still sorted by article
    slot = np.minimum(np.searchsorted(cats, catmap.category), cats.size - 1)
    member = cats[slot] == catmap.category
    member_article, member_category = catmap.article[member], slot[member]
    # one row per (edit, selected category of its article), located per distinct article
    articles, article_of_edit = np.unique(edits[:, 1], return_inverse=True)
    lo = np.searchsorted(member_article, articles, side="left")
    width = np.searchsorted(member_article, articles, side="right") - lo
    lo, width = lo[article_of_edit.reshape(-1)], width[article_of_edit.reshape(-1)]
    first = np.cumsum(width) - width
    member_row = np.arange(int(width.sum())) - np.repeat(first - lo, width)
    authors, author_index = np.unique(np.repeat(edits[:, 0], width), return_inverse=True)
    # dense (author, category) keys sort author-major
    keys, count = np.unique(author_index.reshape(-1) * cats.size + member_category[member_row], return_counts=True)
    return EditLog(
        author=authors[keys // cats.size],
        category=cats[keys % cats.size],
        count=count.astype(np.int64),
    )


def titles_of(strings):
    """`Titles` over one buffer holding the UTF-8 bytes of `strings`."""
    encoded = [title.encode("utf-8") for title in strings]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    stop = np.cumsum(lengths)
    return Titles(np.frombuffer(b"".join(encoded), dtype=np.uint8), stop - lengths, stop)


def data_lines(path):
    """Yield (1-based line number, line), skipping comments and blanks. Lines
    end at LF, CR or CRLF; bytes that are not UTF-8 raise ParseError at their line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(lineno, f"invalid UTF-8 at byte {err.start} of the line", str(path)) from None
        if line and not line.startswith("#"):
            yield lineno, line


def scan(path, columns, duplicate=None):
    """The line-by-line parse of a TSV file by its column table: what
    `wgm.ingest._parse` returns, or the error of the first bad line. Given
    `duplicate`, a repeated first column raises it."""
    rows = []
    first_line = {}
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != len(columns):
            raise ParseError(lineno, f"expected {len(columns)} tab-separated fields, got {len(parts)}", str(path))
        row = [parse(value, what, lineno, path) if parse else value for value, (what, parse) in zip(parts, columns)]
        if duplicate and first_line.setdefault(row[0], lineno) != lineno:
            error, message = duplicate
            raise error(lineno, message.format(row[0], first_line[row[0]]), str(path))
        rows.append(row)
    numeric = [j for j, (_, parse) in enumerate(columns) if parse]
    fields = list(zip(*rows)) or [()] * len(columns)
    values = np.array([fields[j] for j in numeric], dtype=np.int64).reshape(len(numeric), -1).T.copy()
    return values, [titles_of(fields[j]) for j in range(len(columns)) if j not in numeric]


def write_nodes_loop(records, path):
    """`wgm.ingest.write_nodes` as one f-string write per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(f"{rec.id}\t{rec.title}\t{rec.namespace}\n")


def write_edges_loop(edges, path):
    """`wgm.ingest.write_edges` as one f-string write per (source, target)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src, dst in edges:
            fh.write(f"{src}\t{dst}\n")


def write_edit_log_loop(records, path):
    """`wgm.ingest.write_edit_log` as one f-string write per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(f"{rec.author_id}\t{rec.article_id}\n")


def write_category_map_loop(catmap, path_map, path_names):
    """`wgm.ingest.write_category_map` as one f-string write per name and map row."""
    with open(path_names, "w", encoding="utf-8", newline="\n") as fh:
        for cat_id in sorted(catmap.category_names):
            fh.write(f"{cat_id}\t{catmap.category_names[cat_id]}\n")
    with open(path_map, "w", encoding="utf-8", newline="\n") as fh:
        for article, cat in zip(catmap.article.tolist(), catmap.category.tolist()):
            fh.write(f"{article}\t{cat}\n")
