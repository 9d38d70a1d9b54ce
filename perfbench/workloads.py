"""Seeded, wiki-shaped inputs for the benchmark workloads.

Inputs are built only through `wgm.synth`, the `wgm.ingest` writers and
numpy post-processing. Each generator also returns what the report must
say about its inputs (the expected counts), derived from the
generator's own arrays and never from `wgm`'s analysis code, so the
output checks are independent of the code they judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wgm.ingest import CategoryMap, EditRecord, NodeRecord, write_category_map, write_edges, write_edit_log, write_nodes
from wgm.synth import generate_preferential, generate_zipf_edits

# non-main namespaces a dump carries: talk, user, project, template, category
EXTRA_NAMESPACES = np.array([1, 2, 4, 10, 14])
NAMESPACE_PREFIX = {1: "Talk:", 2: "User:", 4: "Project:", 10: "Template:", 14: "Category:"}
ZIPF_S = 1.1
HOME_BIAS = 0.8
ANONYMOUS_SHARE = 0.05
UNCATEGORIZED_SHARE = 0.05  # articles in no category
STRAY_EDIT_SHARE = 0.03  # edits to uncategorized articles, dropped on resolve
COMMENT_EVERY = 4999
BLANK_EVERY = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_articles: int
    n_authors: int
    n_categories: int
    n_edits: int
    flags: tuple[str, ...] = ()

    @property
    def n_pairs(self) -> int:
        return int(self.flags[self.flags.index("--pairs") + 1]) if "--pairs" in self.flags else 20_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "links-directed",
            "directed paths, whose BFS frontiers stay tiny (push regime), on the largest graph: parse, namespace filter and CSR build show",
            n_articles=7_000,
            n_authors=300,
            n_categories=20,
            n_edits=3_000,
        ),
        Workload(
            "links-undirected",
            "undirected paths whose BFS frontiers span the graph; ingest and graph build are a small share",
            n_articles=2_500,
            n_authors=100,
            n_categories=10,
            n_edits=1_000,
            flags=("--undirected", "--pairs", "2000"),
        ),
        Workload(
            "edits-heavy",
            "a Zipf edit log over many categories on a small graph: edit parsing, resolve and per-category ranking",
            n_articles=2_000,
            n_authors=10_000,
            n_categories=200,
            n_edits=100_000,
            flags=("--pairs", "500", "--samples", "5000"),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    paths: dict[str, Path]
    expected: dict[str, int]
    sizes: dict[str, int]

    @property
    def data_records(self) -> int:
        """Node, edge and edit lines: the records a report reads as data."""
        return sum(self.sizes[f"{k}_records"] for k in ("nodes", "edges", "edits"))


def _sprinkle(path: Path) -> tuple[int, int]:
    """Add a header comment, periodic comments and blank lines to a TSV."""
    lines = path.read_bytes().split(b"\n")[:-1]
    out = [b"# " + path.name.encode() + b" generated by perfbench"]
    comments, blanks = 1, 0
    for i, line in enumerate(lines, start=1):
        out.append(line)
        if i % COMMENT_EVERY == 0:
            out.append(b"# line %d" % i)
            comments += 1
        if i % BLANK_EVERY == 0:
            out.append(b"")
            blanks += 1
    path.write_bytes(b"\n".join(out) + b"\n")
    return comments, blanks


def _write_links(w: Workload, rng: np.random.Generator, seed: int, out: Path) -> tuple[np.ndarray, dict, dict]:
    """Write nodes.tsv and edges.tsv; return the article ids, expectations and sizes."""
    n = w.n_articles
    main_edges = generate_preferential(n, 3, seed).edges()
    n_extra = n // 10
    total = n + n_extra
    ids = rng.permutation(total)  # page i gets id ids[i]; pages [0, n) are articles
    namespaces = np.concatenate([np.zeros(n, dtype=np.int64), rng.choice(EXTRA_NAMESPACES, n_extra)])
    # every non-article page links to one random article and is linked from another
    extra = np.arange(n, total)
    pad = np.concatenate(
        [
            np.column_stack([extra, rng.integers(0, n, n_extra)]),
            np.column_stack([rng.integers(0, n, n_extra), extra]),
        ]
    )
    edges = ids[np.concatenate([main_edges, pad])]
    edges = edges[rng.permutation(len(edges))]

    by_id = np.argsort(ids)
    write_nodes(
        (
            NodeRecord(int(ids[p]), NAMESPACE_PREFIX.get(int(namespaces[p]), "") + f"Page {p}", int(namespaces[p]))
            for p in by_id.tolist()
        ),
        out / "nodes.tsv",
    )
    write_edges(map(tuple, edges.tolist()), out / "edges.tsv")
    expected = {"node_count": n, "edge_count": len(main_edges), "id_space": total}
    sizes = {"nodes_records": total, "edges_records": len(edges)}
    return ids[:n], expected, sizes


def _write_edits(
    w: Workload, rng: np.random.Generator, seed: int, articles: np.ndarray, id_space: int, out: Path
) -> tuple[dict, dict]:
    """Write edits.tsv, catmap.tsv and catnames.tsv over the given article ids."""
    n, n_cat = len(articles), w.n_categories
    log = generate_zipf_edits(w.n_authors, n_cat, w.n_edits, ZIPF_S, seed, HOME_BIAS)
    authors = np.fromiter((r.author_id for r in log.records), dtype=np.int64, count=w.n_edits)
    home = np.fromiter((r.article_id for r in log.records), dtype=np.int64, count=w.n_edits)  # == category id

    # spread each category over many articles: primary membership round-robin
    # over a shuffled article order, a few articles left uncategorized
    order = rng.permutation(n)
    n_member = n - max(1, int(n * UNCATEGORIZED_SHARE))
    members, loose = articles[order[:n_member]], articles[order[n_member:]]
    primary = np.arange(n_member) % n_cat
    # some articles sit in two or three categories
    second = rng.random(n_member) < 0.2
    third = second & (rng.random(n_member) < 0.25)
    extra2 = (primary + rng.integers(1, n_cat, n_member)) % n_cat
    extra3 = (primary + rng.integers(1, n_cat, n_member)) % n_cat
    pairs = np.concatenate(
        [
            np.column_stack([members, primary]),
            np.column_stack([members[second], extra2[second]]),
            np.column_stack([members[third], extra3[third]]),
        ]
    )
    pairs = np.unique(pairs, axis=0)

    # each edit goes to a random article whose primary category is its home
    by_cat = np.argsort(primary, kind="stable")
    starts = np.searchsorted(primary[by_cat], np.arange(n_cat))
    counts = np.bincount(primary, minlength=n_cat)
    pick = starts[home] + (rng.random(w.n_edits) * counts[home]).astype(np.int64)
    edit_articles = members[by_cat[pick]]

    # the first edit of each category stays named and categorized
    keep = np.zeros(w.n_edits, dtype=bool)
    keep[np.unique(home, return_index=True)[1]] = True
    stray = ~keep & (rng.random(w.n_edits) < STRAY_EDIT_SHARE)
    edit_articles[stray] = rng.choice(loose, int(stray.sum()))
    anonymous = ~keep & (rng.random(w.n_edits) < ANONYMOUS_SHARE)
    authors[anonymous] = 0

    write_edit_log(
        (EditRecord(a, b) for a, b in zip(authors.tolist(), edit_articles.tolist())), out / "edits.tsv"
    )
    membership: dict[int, set[int]] = {}
    for a, c in pairs.tolist():
        membership.setdefault(a, set()).add(c)
    write_category_map(
        CategoryMap(
            article_to_categories={a: frozenset(cs) for a, cs in membership.items()},
            category_names={c: f"Category {c:03d}" for c in range(n_cat)},
        ),
        out / "catmap.tsv",
        out / "catnames.tsv",
    )

    cats_of = np.bincount(pairs[:, 0], minlength=id_space)
    resolved = cats_of[edit_articles] > 0
    edited = np.bincount(edit_articles, minlength=id_space) > 0
    expected = {
        "category_edits": int(cats_of[edit_articles].sum()),
        "entropy_authors": len(np.unique(authors[resolved])),
        "categories_with_edits": len(np.unique(pairs[edited[pairs[:, 0]], 1])),
    }
    sizes = {"edits_records": w.n_edits, "catmap_records": len(pairs), "catnames_records": n_cat}
    return expected, sizes


def generate(w: Workload, seed: int, out: Path) -> Inputs:
    """Write the workload's five TSVs under `out`; same seed, same bytes."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    articles, expected, sizes = _write_links(w, rng, seed, out)
    edit_expected, edit_sizes = _write_edits(w, rng, seed + 1, articles, expected["id_space"], out)
    expected |= edit_expected
    expected["sampled_pairs"] = w.n_pairs
    sizes |= edit_sizes
    paths = {k: out / f"{k}.tsv" for k in ("nodes", "edges", "edits", "catmap", "catnames")}
    for key, path in paths.items():
        comments, blanks = _sprinkle(path)
        sizes[f"{key}_comment_lines"] = comments
        sizes[f"{key}_blank_lines"] = blanks
        sizes[f"{key}_bytes"] = path.stat().st_size
    sizes["bytes"] = sum(sizes[f"{k}_bytes"] for k in paths)
    return Inputs(paths=paths, expected=expected, sizes=sizes)


def report_args(w: Workload, inputs: Inputs) -> list[str]:
    """`wgm report` arguments for one operation of the workload."""
    p = inputs.paths
    return [
        "report",
        "--nodes", str(p["nodes"]), "--edges", str(p["edges"]),
        "--edits", str(p["edits"]), "--catmap", str(p["catmap"]), "--catnames", str(p["catnames"]),
        *w.flags,
    ]
