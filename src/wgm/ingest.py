"""TSV loaders and writers for node tables, edge lists, edit logs, and
category maps, plus the main-namespace filter.

All files are UTF-8, one record per line, fields separated by single
tabs. Lines starting with '#' and blank lines are skipped. Every parse
failure carries its 1-based physical line number.

Every file is read whole and parsed in numpy: the all-integer files
(edge lists, edit logs, category maps) into `(n, k)` int64 arrays, the
node table into id and namespace columns with each title kept as a byte
range of the file, decoded only when read. Bytes those parsers do not
expect send the file through the line-by-line scan instead, which parses
the same records or names the offending line.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateCategoryId,
    DuplicateNodeId,
    ParseError,
    UnknownNodeInEdge,
    UnnamedCategory,
)

__all__ = [
    "NodeRecord",
    "NodeTable",
    "Titles",
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
# ids and namespaces are int64: they lie in [INT64_MIN, INT64_MAX]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# the widest token the array parser converts; 10**18 - 1 fits int64
FAST_DIGITS = 18
_COMMENT_LINE = re.compile(rb"\n#[^\n]*")


class NodeRecord(NamedTuple):
    id: int
    title: str
    namespace: int


class EditRecord(NamedTuple):
    author_id: int
    article_id: int


class Titles(Sequence):
    """Node titles held as byte ranges of one UTF-8 buffer; a title is
    decoded only when it is read. An int index reads one title, an index
    array or boolean mask gives the view of those titles."""

    def __init__(self, data: np.ndarray, start: np.ndarray, stop: np.ndarray):
        self._data, self._start, self._stop = data, start, stop

    @classmethod
    def from_strings(cls, titles: Sequence[str]) -> Titles:
        encoded = [title.encode("utf-8") for title in titles]
        lengths = np.array([len(b) for b in encoded], dtype=np.int64)
        stop = np.cumsum(lengths)
        return cls(np.frombuffer(b"".join(encoded), dtype=np.uint8), stop - lengths, stop)

    def __len__(self) -> int:
        return len(self._start)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._data[self._start[index] : self._stop[index]].tobytes().decode("utf-8")
        return Titles(self._data, self._start[index], self._stop[index])


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A node table as columns, one row per node in file order."""

    id: np.ndarray
    namespace: np.ndarray
    titles: Titles

    def __len__(self) -> int:
        return len(self.id)


class CategoryMap:
    """Article-to-category membership plus category names.

    The membership is held as the sorted, distinct (article, category)
    rows, in the columns `article` and `category`. It is given either as
    an article -> categories mapping or as an `(n, 2)` array of `pairs`
    in any order, repeats allowed.
    """

    def __init__(
        self,
        article_to_categories: Mapping[int, Iterable[int]] | None = None,
        category_names: dict[int, str] | None = None,
        *,
        pairs: np.ndarray | None = None,
    ):
        if pairs is None:
            members = article_to_categories or {}
            sizes = [len(cs) for cs in members.values()]
            articles = np.repeat(np.fromiter(members, dtype=np.int64, count=len(members)), sizes)
            categories = np.fromiter(chain.from_iterable(members.values()), dtype=np.int64, count=sum(sizes))
            pairs = np.column_stack([articles, categories])
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        distinct = np.ones(len(pairs), dtype=bool)
        distinct[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        self.article, self.category = pairs[distinct].T.copy()
        self.category_names = category_names or {}

    @property
    def article_to_categories(self) -> dict[int, frozenset[int]]:
        """The membership as an article -> categories mapping, built on each read."""
        members: dict[int, set[int]] = {}
        for article, cat in zip(self.article.tolist(), self.category.tolist()):
            members.setdefault(article, set()).add(cat)
        return {a: frozenset(cs) for a, cs in members.items()}

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
    """The int64 that the ASCII decimal `-?[0-9]+` in `value` spells; anything
    else, such as `1_0`, `+5`, padding, non-ASCII digits or a value outside
    the int64 range, is a ParseError."""
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(lineno, f"non-integer {what}: {value!r}", str(path))
    significant = digits.lstrip("0")
    # measured before int(), which refuses strings of 4,300+ digits
    n = int(significant or "0") if len(significant) <= 19 else INT64_MAX + 1
    n = -n if value[:1] == "-" else n
    if not INT64_MIN <= n <= INT64_MAX:
        raise ParseError(lineno, f"{what} outside the int64 range: {value[:24]}", str(path))
    return n


def _int_field(value: str, what: str, lineno: int, path) -> int:
    if len(value) <= FAST_DIGITS and value.isdigit() and value.isascii():  # the common case, without a call
        return int(value)
    n = _decimal(value, what, lineno, path)
    if n < 0:
        raise ParseError(lineno, f"negative {what}: {n}", str(path))
    return n


def _rows(data: bytes) -> np.ndarray:
    """The bytes of a file without its comment and blank lines, each row
    ending in a newline."""
    if b"#" in data:
        # a comment line goes with the newline before it; the first line gets one
        data = _COMMENT_LINE.sub(b"", b"\n" + data)
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = buf == ord("\n")
    blank = newline.copy()  # a newline at the start or right after another
    blank[1:] &= newline[:-1]
    return buf[~blank] if blank.any() else buf


def _fields(buf: np.ndarray, delimiter: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The `(n, k)` end offsets and widths of the fields of k-field rows
    whose fields end at the `delimiter` bytes; None unless, row by row,
    the delimiters read k-1 tabs, then a newline."""
    ends = np.flatnonzero(delimiter)
    if ends.size % k:
        return None
    kinds = buf[ends].reshape(-1, k)
    if not ((kinds[:, :-1] == ord("\t")).all() and (kinds[:, -1] == ord("\n")).all()):
        return None
    return ends.reshape(-1, k), (np.diff(ends, prepend=-1) - 1).reshape(-1, k)


def _decimals(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The int64 values of the decimal fields of `widths` bytes that end
    before `ends`; None if a field is empty, wider than FAST_DIGITS or
    holds a byte that is not a digit."""
    if ends.size and not 1 <= widths.min() <= widths.max() <= FAST_DIGITS:
        return None
    values = np.zeros(ends.shape, dtype=np.int64)
    for place in range(int(widths.max()) if ends.size else 0):
        # the byte `place + 1` before each field's end; fields narrower than
        # that read another field's byte (or wrap around), masked to 0.
        # uint8 wraps, so every byte but a digit reads above 9
        digit = (buf[ends - (place + 1)] - np.uint8(ord("0"))) * (widths > place)
        if digit.max() > 9:
            return None
        values += digit.astype(np.int64) * 10**place
    return values


def _node_columns(data: bytes) -> NodeTable | None:
    """The node table of a file's bytes.

    Returns None, leaving the verdict to the line scan, on any byte it does
    not expect: CR, invalid UTF-8, a row without exactly two tabs, an id or
    namespace that is not 1 to FAST_DIGITS digits (a sign included), or a
    repeated id.
    """
    if b"\r" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = _rows(data)
    split = _fields(buf, (buf == ord("\t")) | (buf == ord("\n")), 3)
    if split is None:
        return None
    ends, widths = split
    ids = _decimals(buf, ends[:, 0], widths[:, 0])
    namespaces = _decimals(buf, ends[:, 2], widths[:, 2])
    if ids is None or namespaces is None:
        return None
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        return None
    return NodeTable(ids, namespaces, Titles(buf, ends[:, 0] + 1, ends[:, 1]))


def _scan_nodes(path: str | os.PathLike) -> NodeTable:
    """The line-by-line parse of a node table."""
    ids, titles, namespaces = [], [], []
    first_line: dict[int, int] = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 tab-separated fields, got {len(parts)}", str(path))
        node_id = _int_field(parts[0], "id", lineno, path)
        namespace = _decimal(parts[2], "namespace", lineno, path)
        if node_id in first_line:
            raise DuplicateNodeId(lineno, f"node id {node_id} already defined on line {first_line[node_id]}", str(path))
        first_line[node_id] = lineno
        ids.append(node_id)
        titles.append(parts[1])
        namespaces.append(namespace)
    return NodeTable(np.array(ids, dtype=np.int64), np.array(namespaces, dtype=np.int64), Titles.from_strings(titles))


def load_nodes(path: str | os.PathLike) -> NodeTable:
    """Parse a node table `id<TAB>title<TAB>namespace` into columns."""
    with open(path, "rb") as fh:
        table = _node_columns(fh.read())
    return _scan_nodes(path) if table is None else table


def _int_columns(data: bytes, k: int) -> np.ndarray | None:
    """The `(n, k)` int64 array of a file of k non-negative integer columns.

    Returns None, leaving the verdict to the line scan, on any byte it does
    not expect: CR, non-ASCII, a sign, an empty field, a wrong field count
    or a token of more than FAST_DIGITS digits.
    """
    if b"\r" in data or not data.isascii():
        return None
    buf = _rows(data)
    # every byte but a digit ends a field
    split = _fields(buf, (buf < ord("0")) | (buf > ord("9")), k)
    return None if split is None else _decimals(buf, *split)


def _scan_int_columns(path: str | os.PathLike, what: tuple[str, ...]) -> np.ndarray:
    """The line-by-line parse of a file of non-negative integer columns."""
    rows = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != len(what):
            raise ParseError(lineno, f"expected {len(what)} tab-separated fields, got {len(parts)}", str(path))
        rows.append([_int_field(value, name, lineno, path) for value, name in zip(parts, what)])
    return np.array(rows, dtype=np.int64).reshape(-1, len(what))


def _read_int_columns(path: str | os.PathLike, what: tuple[str, ...]) -> np.ndarray:
    """Parse a file of non-negative integer columns into an `(n, k)` int64 array."""
    with open(path, "rb") as fh:
        table = _int_columns(fh.read(), len(what))
    return _scan_int_columns(path, what) if table is None else table


def _record_line(path: str | os.PathLike, ordinal: int) -> int:
    """The physical line of the file's `ordinal`-th (1-based) data record."""
    return next(islice(_data_lines(path), ordinal - 1, None), (ordinal, ""))[0]


def load_edges(path: str | os.PathLike) -> np.ndarray:
    """Parse an edge list `source_id<TAB>target_id` into an `(n, 2)` array.

    Whether each id names a node is checked by :func:`filter_main_namespace`.
    """
    return _read_int_columns(path, ("source id", "target id"))


def load_edit_log(path: str | os.PathLike) -> np.ndarray:
    """Parse an edit log `author_id<TAB>article_id` into an `(n, 2)` array,
    one row per edit.

    Duplicates are kept; repeat edits are meaningful.
    """
    return _read_int_columns(path, ("author id", "article id"))


def load_category_map(path_map: str | os.PathLike, path_names: str | os.PathLike) -> CategoryMap:
    """Parse `article_id<TAB>category_id` plus `category_id<TAB>name`."""
    names: dict[int, str] = {}
    first_line: dict[int, int] = {}
    for lineno, line in _data_lines(path_names):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 2 tab-separated fields, got {len(parts)}", str(path_names))
        cat_id = _int_field(parts[0], "category id", lineno, path_names)
        if cat_id in first_line:
            raise DuplicateCategoryId(
                lineno, f"category id {cat_id} already named on line {first_line[cat_id]}", str(path_names)
            )
        first_line[cat_id] = lineno
        names[cat_id] = parts[1]

    pairs = _read_int_columns(path_map, ("article id", "category id"))
    named = np.isin(pairs[:, 1], np.fromiter(names, dtype=np.int64, count=len(names)))
    if not named.all():
        row = int(np.argmin(named))
        line = _record_line(path_map, row + 1)
        raise UnnamedCategory(line, f"category {pairs[row, 1]} has no name entry", str(path_map))
    return CategoryMap(category_names=names, pairs=pairs)


def filter_main_namespace(
    nodes: NodeTable, edges: Iterable[tuple[int, int]] | np.ndarray, *, path: str | os.PathLike | None = None
) -> tuple[NodeTable, np.ndarray]:
    """Keep main-namespace nodes only, densely renumbering ids in table order.

    Returns (the kept nodes, with ids 0..k-1, and the remapped `(n, 2)`
    edge array). Edges touching a removed node are dropped; an edge
    referencing an id absent from the node table raises
    :class:`UnknownNodeInEdge` at its ordinal, or, given the `path` the
    edges were read from, at its physical line in that file.
    """
    ids = nodes.id
    main = nodes.namespace == MAIN_NAMESPACE
    new_id = np.where(main, np.cumsum(main) - 1, -1)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]

    arr = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    at = np.minimum(np.searchsorted(sorted_ids, arr), max(len(nodes) - 1, 0))
    known = sorted_ids[at] == arr if len(nodes) else np.zeros(arr.shape, dtype=bool)
    if not known.all():
        row = int(np.argmin(known.all(axis=1)))
        bad = int(arr[row, 0] if not known[row, 0] else arr[row, 1])
        reason = f"edge references unknown node id {bad}"
        if path is None:
            raise UnknownNodeInEdge(row + 1, reason)
        raise UnknownNodeInEdge(_record_line(path, row + 1), reason, str(path))
    mapped = new_id[order[at]]
    k = int(main.sum())
    kept = NodeTable(np.arange(k, dtype=np.int64), np.full(k, MAIN_NAMESPACE, dtype=np.int64), nodes.titles[main])
    return kept, mapped[(mapped >= 0).all(axis=1)]


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
        for article, cat in zip(catmap.article.tolist(), catmap.category.tolist()):
            fh.write(f"{article}\t{cat}\n")
