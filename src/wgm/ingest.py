"""TSV loaders and writers for node tables, edge lists, edit logs, and
category maps, plus the main-namespace filter.

All files are UTF-8, one record per line, fields separated by single
tabs. Lines starting with '#' and blank lines are skipped. Every parse
failure carries its 1-based physical line number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateNodeId,
    EndpointOutOfRange,
    ParseError,
    UnknownNodeInEdge,
    UnnamedCategory,
)

__all__ = [
    "NodeRecord",
    "EditRecord",
    "CategoryMap",
    "load_nodes",
    "load_edges",
    "load_edit_log",
    "load_category_map",
    "filter_main_namespace",
    "write_nodes",
    "write_edges",
    "write_edit_log",
    "write_category_map",
]

MAIN_NAMESPACE = 0


class NodeRecord(NamedTuple):
    id: int
    title: str
    namespace: int


class EditRecord(NamedTuple):
    author_id: int
    article_id: int


@dataclass
class CategoryMap:
    """Article-to-category membership plus category names."""

    article_to_categories: dict[int, frozenset[int]]
    category_names: dict[int, str]

    def categories(self) -> frozenset[int]:
        return frozenset(self.category_names)


def _data_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping comments/blanks.

    Bytes that are not UTF-8 raise :class:`ParseError` at their line.
    """
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError:
        # the text reader decodes ahead of the line it yields, so the rest
        # of the file is split into lines the same way and decoded one by one
        with open(path, "rb") as fh:
            rest = fh.read().splitlines()[lineno:]
        for lineno, raw in enumerate(rest, start=lineno + 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ParseError(lineno, f"invalid UTF-8 at byte {err.start} of the line", str(path)) from None
            if line and not line.startswith("#"):
                yield lineno, line


def _decimal(value: str, what: str, lineno: int, path) -> int:
    """The ASCII decimal integer `-?[0-9]+` that `value` spells; anything
    else, such as `1_0`, `+5`, padding or non-ASCII digits, is a ParseError."""
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(lineno, f"non-integer {what}: {value!r}", str(path))
    return int(value)


def _int_field(value: str, what: str, lineno: int, path) -> int:
    if value.isdigit() and value.isascii():  # the common case, without a call
        return int(value)
    n = _decimal(value, what, lineno, path)
    if n < 0:
        raise ParseError(lineno, f"negative {what}: {n}", str(path))
    return n


def load_nodes(path: str | os.PathLike) -> list[NodeRecord]:
    """Parse a node table: `id<TAB>title<TAB>namespace`."""
    records: list[NodeRecord] = []
    seen: dict[int, int] = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 tab-separated fields, got {len(parts)}", str(path))
        node_id = _int_field(parts[0], "id", lineno, path)
        namespace = _decimal(parts[2], "namespace", lineno, path)
        if node_id in seen:
            raise DuplicateNodeId(lineno, f"node id {node_id} already defined on line {seen[node_id]}", str(path))
        seen[node_id] = lineno
        records.append(NodeRecord(node_id, parts[1], namespace))
    return records


def _load_pairs(path: str | os.PathLike, what: tuple[str, str]) -> list[tuple[int, int, int]]:
    """Parse two-integer-field lines; returns (first, second, lineno) triples."""
    out = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 2 tab-separated fields, got {len(parts)}", str(path))
        a = _int_field(parts[0], what[0], lineno, path)
        b = _int_field(parts[1], what[1], lineno, path)
        out.append((a, b, lineno))
    return out


def load_edges(path: str | os.PathLike, node_count: int) -> list[tuple[int, int]]:
    """Parse an edge list: `source_id<TAB>target_id`, ids < node_count."""
    edges = []
    for src, dst, lineno in _load_pairs(path, ("source id", "target id")):
        if src >= node_count or dst >= node_count:
            bad = src if src >= node_count else dst
            raise EndpointOutOfRange(f"endpoint {bad} not in [0, {node_count})", line=lineno)
        edges.append((src, dst))
    return edges


def load_edit_log(path: str | os.PathLike) -> list[EditRecord]:
    """Parse an edit log: `author_id<TAB>article_id`, one record per edit.

    Duplicates are kept; repeat edits are meaningful.
    """
    return [EditRecord(a, b) for a, b, _ in _load_pairs(path, ("author id", "article id"))]


def load_category_map(path_map: str | os.PathLike, path_names: str | os.PathLike) -> CategoryMap:
    """Parse `article_id<TAB>category_id` plus `category_id<TAB>name`."""
    names: dict[int, str] = {}
    for lineno, line in _data_lines(path_names):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 2 tab-separated fields, got {len(parts)}", str(path_names))
        cat_id = _int_field(parts[0], "category id", lineno, path_names)
        names[cat_id] = parts[1]

    members: dict[int, set[int]] = {}
    for article, cat, lineno in _load_pairs(path_map, ("article id", "category id")):
        if cat not in names:
            raise UnnamedCategory(lineno, f"category {cat} has no name entry", str(path_map))
        members.setdefault(article, set()).add(cat)

    return CategoryMap(
        article_to_categories={a: frozenset(cs) for a, cs in members.items()},
        category_names=names,
    )


def filter_main_namespace(
    nodes: list[NodeRecord], edges: Iterable[tuple[int, int]]
) -> tuple[list[NodeRecord], list[tuple[int, int]], dict[int, int]]:
    """Keep main-namespace nodes only, densely renumbering ids.

    Returns (filtered nodes, remapped edges, old-id -> new-id table).
    Edges touching a removed node are dropped; edges referencing an id
    absent from the node table raise :class:`UnknownNodeInEdge`.
    """
    known = {rec.id for rec in nodes}
    remap: dict[int, int] = {}
    kept: list[NodeRecord] = []
    for rec in nodes:
        if rec.namespace == MAIN_NAMESPACE:
            remap[rec.id] = len(kept)
            kept.append(NodeRecord(len(kept), rec.title, MAIN_NAMESPACE))

    new_edges: list[tuple[int, int]] = []
    for idx, (src, dst) in enumerate(edges, start=1):
        if src not in known or dst not in known:
            bad = src if src not in known else dst
            raise UnknownNodeInEdge(idx, f"edge references unknown node id {bad}")
        if src in remap and dst in remap:
            new_edges.append((remap[src], remap[dst]))
    return kept, new_edges, remap


def write_nodes(records: Iterable[NodeRecord], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(f"{rec.id}\t{rec.title}\t{rec.namespace}\n")


def write_edges(edges: Iterable[tuple[int, int]], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src, dst in edges:
            fh.write(f"{src}\t{dst}\n")


def write_edit_log(records: Iterable[EditRecord], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(f"{rec.author_id}\t{rec.article_id}\n")


def write_category_map(catmap: CategoryMap, path_map: str | os.PathLike, path_names: str | os.PathLike) -> None:
    with open(path_names, "w", encoding="utf-8", newline="\n") as fh:
        for cat_id in sorted(catmap.category_names):
            fh.write(f"{cat_id}\t{catmap.category_names[cat_id]}\n")
    with open(path_map, "w", encoding="utf-8", newline="\n") as fh:
        for article in sorted(catmap.article_to_categories):
            for cat in sorted(catmap.article_to_categories[article]):
                fh.write(f"{article}\t{cat}\n")
