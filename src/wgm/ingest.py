"""TSV loaders and writers for node tables, edge lists, edit logs, and
category maps, plus the main-namespace filter.

All files are UTF-8, one record per line, fields separated by single
tabs; a line ends at LF, CRLF or a lone CR. Lines starting with '#' and
blank lines are skipped. Every parse failure carries its 1-based
physical line number.

Every file is read whole and parsed in numpy by one parser, driven by the
file's column table (`NODE_COLUMNS` and the like): the numeric columns
into an `(n, m)` int64 array, each text column kept as byte ranges of the
file, decoded only when read. numpy decodes every valid field: signed,
zero-padded and up to 19 significant digits; the table's field parsers
only name the first bad line.
"""

from __future__ import annotations

import os
import re
import stat
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
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
# the most digits a field keeps after its leading zeros; 10**19 - 1 fits uint64
FAST_DIGITS = 19
_COMMENT_LINE = re.compile(rb"\n#[^\n]*")


class NodeRecord(NamedTuple):
    id: int
    title: str
    namespace: int


class EditRecord(NamedTuple):
    author_id: int
    article_id: int


class Titles(Sequence):
    """The values of a text column (node titles, category names) held as
    byte ranges of one UTF-8 buffer; a title is decoded only when it is read.
    An int index reads one title, an index array or boolean mask gives the
    view of those titles."""

    def __init__(self, data: np.ndarray, start: np.ndarray, stop: np.ndarray):
        self._data, self._start, self._stop = data, start, stop

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


def _signed(value: str, what: str, lineno: int, path) -> int:
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


def _unsigned(value: str, what: str, lineno: int, path) -> int:
    n = _signed(value, what, lineno, path)
    if n < 0:
        raise ParseError(lineno, f"negative {what}: {n}", str(path))
    return n


# each file's columns: (name in error messages, parser that names a rejected
# numeric field's error, None for a text column)
Columns = tuple[tuple[str, Callable[[str, str, int, object], int] | None], ...]
NODE_COLUMNS: Columns = (("id", _unsigned), ("title", None), ("namespace", _signed))
EDGE_COLUMNS: Columns = (("source id", _unsigned), ("target id", _unsigned))
EDIT_COLUMNS: Columns = (("author id", _unsigned), ("article id", _unsigned))
MAP_COLUMNS: Columns = (("article id", _unsigned), ("category id", _unsigned))
NAME_COLUMNS: Columns = (("category id", _unsigned), ("name", None))
# the error and message of a repeated first column, in the files that forbid one
Duplicate = tuple[type[ParseError], str]
DUPLICATE_NODE: Duplicate = (DuplicateNodeId, "node id {} already defined on line {}")
DUPLICATE_CATEGORY: Duplicate = (DuplicateCategoryId, "category id {} already named on line {}")
Parsed = tuple[np.ndarray, list[Titles]]


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


def _decimals(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 values of the decimal fields of `widths` bytes that end
    before `ends`, and the mask of those of 1 to FAST_DIGITS digits."""
    top = int(widths.max(initial=1))
    values = np.zeros(ends.shape, dtype=np.uint16)
    worst = np.zeros(ends.shape, dtype=np.uint8)  # each field's largest digit
    for place in range(min(top, FAST_DIGITS)):
        # the byte `place + 1` before each field's end, at place 0 an empty
        # field's delimiter; every byte but a digit reads above 9 in uint8. A
        # narrower field reads an earlier byte (or wraps around), masked to 0
        digit = buf[ends - (place + 1)] - np.uint8(ord("0"))
        if place:
            digit *= widths > place
        np.maximum(worst, digit, out=worst)
        if place in (4, 9):  # the sum outgrows uint16, then uint32
            values = values.astype(np.uint32 if place == 4 else np.uint64)
        values += np.multiply(digit, 10**place, dtype=values.dtype)
    return values.astype(np.uint64, copy=False), (worst <= 9) & (widths <= FAST_DIGITS)


def _numbers(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray, parse) -> tuple[np.ndarray, int]:
    """The int64 values of a column parsed by `parse`, and the first row
    whose field `parse` rejects (or the row count). It reads a leading `-`,
    drops the zeros before a field's last FAST_DIGITS digits (`widths` becomes
    the digits read) and keeps int64's range (below 0 none for `_unsigned`)."""
    minus = buf[ends - widths] == ord("-")
    widths -= minus
    wide = np.flatnonzero(widths > FAST_DIGITS)
    if wide.size:  # a wide field whose leading bytes are all 0 keeps its last FAST_DIGITS
        bounds = np.column_stack([ends[wide] - widths[wide], ends[wide] - FAST_DIGITS]).ravel()
        zeros = np.logical_and.reduceat(buf[bounds[0] : bounds[-1]] == ord("0"), bounds[:-1] - bounds[0])
        widths[wide[zeros[::2]]] = FAST_DIGITS
    values, fits = _decimals(buf, ends, widths)
    fits &= values <= (np.uint64(INT64_MAX) + minus if parse is _signed else np.uint64(INT64_MAX) * ~minus)
    values = values.view(np.int64)
    np.negative(values, out=values, where=minus)  # INT64_MIN wraps to itself
    return values, int(np.argmin(fits)) if not fits.all() else len(fits)


def _lf(data: bytes) -> bytes:
    """`data` with each CRLF, then each lone CR, made an LF, so that lines
    end where `bytes.splitlines` ends them."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _data_lines(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based physical line and the offset of the first byte of each
    data line (neither blank nor a comment) of LF-ended `data`."""
    buf = np.frombuffer(b"\n" + data, dtype=np.uint8)
    starts = np.flatnonzero(buf[:-1] == ord("\n"))  # each line's first byte, in `data`
    kept = np.flatnonzero((buf[starts + 1] != ord("\n")) & (buf[starts + 1] != ord("#")))
    return kept + 1, starts[kept]


def _parse(data: bytes, columns: Columns, duplicate: Duplicate | None = None, path: str | None = None) -> Parsed:
    """A file's numeric columns as an `(n, m)` int64 array and its text
    columns, from its bytes, whose lines end at LF, CRLF or a lone CR. The
    column table's field parsers name the first bad field.
    A bad line (invalid UTF-8, a wrong field count, a bad field, a repeated
    first column given `duplicate`, in that order) raises once the lines
    before it parse."""
    data = _lf(data)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            start = data.rfind(b"\n", 0, err.start) + 1
            _parse(data[:start], columns, duplicate, path)  # an earlier bad line raises first
            reason = f"invalid UTF-8 at byte {err.start - start} of the line"
            raise ParseError(data.count(b"\n", 0, start) + 1, reason, path) from None
    buf = _rows(data)
    k = len(columns)
    ends = np.flatnonzero((buf == ord("\t")) | (buf == ord("\n")))
    kinds = buf[ends]
    rows = kinds.reshape(-1, k) if ends.size % k == 0 else None  # k-1 tabs, then a newline, per row
    if rows is None or not ((rows[:, :-1] == ord("\t")).all() and (rows[:, -1] == ord("\n")).all()):
        counts = np.diff(np.flatnonzero(kinds == ord("\n")), prepend=-1)  # each row's field count
        row = int(np.argmin(counts == k))
        lines, starts = _data_lines(data)
        _parse(data[: starts[row]], columns, duplicate, path)
        raise ParseError(int(lines[row]), f"expected {k} tab-separated fields, got {counts[row]}", path)
    # one contiguous row per column: numpy decodes a column faster than a strided view of it
    widths = (np.diff(ends, prepend=-1) - 1).reshape(-1, k).T.copy()
    ends = ends.reshape(-1, k).T.copy()
    numeric = [j for j, (_, parse) in enumerate(columns) if parse]
    texts = [Titles(buf, ends[j] - widths[j], ends[j]) for j in range(k) if j not in numeric]
    decoded = [_numbers(buf, ends[j], widths[j], columns[j][1]) for j in numeric]
    values = np.column_stack([column for column, _ in decoded])
    row = min(bad for _, bad in decoded)
    if row < len(values):  # the first row with a field numpy cannot decode: its parsers name the error
        lines, starts = _data_lines(data)
        _parse(data[: starts[row]], columns, duplicate, path)  # an earlier bad line raises first
        start = ends[-1, row - 1] + 1 if row else 0  # `widths` now counts the digits decoded
        fields = zip(buf[start : ends[-1, row]].tobytes().decode("utf-8").split("\t"), columns)
        [parse(value, what, int(lines[row]), path) for value, (what, parse) in fields if parse]
        raise AssertionError(f"line {lines[row]} of {path}: numpy rejects a row that its field parsers accept")
    ids = values[:, 0]
    if duplicate and (np.diff(np.sort(ids)) == 0).any():
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        row = int(np.argmax(first[inverse] != np.arange(len(ids))))  # the first that repeats an earlier row
        lines, (kind, message) = _data_lines(data)[0], duplicate
        raise kind(int(lines[row]), message.format(ids[row], lines[first[inverse[row]]]), path)
    return values, texts


def _read(path: str | os.PathLike, columns: Columns, duplicate: Duplicate | None = None) -> Parsed:
    """Parse a file by its column table."""
    with open(path, "rb") as fh:
        return _parse(fh.read(), columns, duplicate, str(path))


def _record_line(data: bytes, ordinal: int) -> int:
    """The physical line of the `ordinal`-th (1-based) data record of a file's bytes."""
    lines = _data_lines(_lf(data))[0]
    return int(lines[ordinal - 1]) if ordinal <= len(lines) else ordinal


def load_nodes(path: str | os.PathLike) -> NodeTable:
    """Parse a node table `id<TAB>title<TAB>namespace` into columns."""
    values, (titles,) = _read(path, NODE_COLUMNS, DUPLICATE_NODE)
    return NodeTable(*values.T.copy(), titles)


def load_edges(path: str | os.PathLike) -> np.ndarray:
    """Parse an edge list `source_id<TAB>target_id` into an `(n, 2)` array.

    Whether each id names a node is checked by :func:`filter_main_namespace`.
    """
    return _read(path, EDGE_COLUMNS)[0]


def load_edit_log(path: str | os.PathLike) -> np.ndarray:
    """Parse an edit log `author_id<TAB>article_id` into an `(n, 2)` array,
    one row per edit.

    Duplicates are kept; repeat edits are meaningful.
    """
    return _read(path, EDIT_COLUMNS)[0]


def load_category_map(path_map: str | os.PathLike, path_names: str | os.PathLike) -> CategoryMap:
    """Parse `article_id<TAB>category_id` plus `category_id<TAB>name`."""
    name_ids, (names,) = _read(path_names, NAME_COLUMNS, DUPLICATE_CATEGORY)
    with open(path_map, "rb") as fh:  # read once: a pipe or FIFO cannot be read again to name a line
        data = fh.read()
    pairs = _parse(data, MAP_COLUMNS, path=str(path_map))[0]
    named = np.isin(pairs[:, 1], name_ids[:, 0])
    if not named.all():
        row = int(np.argmin(named))
        line = _record_line(data, row + 1)
        raise UnnamedCategory(line, f"category {pairs[row, 1]} has no name entry", str(path_map))
    return CategoryMap(category_names=dict(zip(name_ids[:, 0].tolist(), names)), pairs=pairs)


def filter_main_namespace(
    nodes: NodeTable, edges: Iterable[tuple[int, int]] | np.ndarray, *, path: str | os.PathLike | None = None
) -> tuple[NodeTable, np.ndarray]:
    """Keep main-namespace nodes only, densely renumbering ids in table order.

    Returns (the kept nodes, with ids 0..k-1, and the remapped `(n, 2)`
    edge array). Edges touching a removed node are dropped; an edge
    referencing an id absent from the node table raises
    :class:`UnknownNodeInEdge` naming the edge's record number (1-based),
    or, given the `path` of a regular file the edges were read from, its
    physical line in that file. A `path` that is not a regular file (a pipe
    or FIFO) is not read again: the error names the record number in it.
    """
    ids = nodes.id
    main = nodes.namespace == MAIN_NAMESPACE
    new_id = np.where(main, np.cumsum(main) - 1, -1)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]

    arr = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    by_id = np.argsort(arr, axis=None)  # binary searches run over twice as fast in sorted order
    at = np.empty(arr.shape, dtype=np.intp)
    at.ravel()[by_id] = np.minimum(np.searchsorted(sorted_ids, arr.ravel()[by_id]), max(len(nodes) - 1, 0))
    known = sorted_ids[at] == arr if len(nodes) else np.zeros(arr.shape, dtype=bool)
    if not known.all():
        row = int(np.argmin(known.all(axis=1)))
        bad = int(arr[row, 0] if not known[row, 0] else arr[row, 1])
        reason = f"edge references unknown node id {bad}"
        if path is None or not stat.S_ISREG(os.stat(path).st_mode):
            raise UnknownNodeInEdge(row + 1, reason, path and str(path), unit="record")
        with open(path, "rb") as fh:
            line = _record_line(fh.read(), row + 1)
        raise UnknownNodeInEdge(line, reason, str(path))
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
