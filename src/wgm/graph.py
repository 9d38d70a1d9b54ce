"""Immutable directed graph over dense integer node ids.

Adjacency is stored CSR-style (indptr + sorted index arrays) for both
directions, so degree queries are O(1) and neighbor intersection is a
merge over sorted arrays. Self-loops and duplicate edges are dropped at
construction and their counts kept for audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyGraph, EndpointOutOfRange, NodeOutOfRange

__all__ = ["ArticleGraph", "DegreeSummary", "build_graph", "degree_of", "mean_degree"]


@dataclass(frozen=True)
class DegreeSummary:
    indegree: int
    outdegree: int

    @property
    def degree(self) -> int:
        return self.indegree + self.outdegree


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) from sorted, distinct edge keys row*n + col."""
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    cols.setflags(write=False)
    return indptr, cols


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in `a`."""
    change = np.ones(a.size, dtype=bool)
    change[1:] = a[1:] != a[:-1]
    return np.flatnonzero(change)


def _keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The sorted keys row*n + col of a CSR's entries."""
    n = indptr.size - 1
    return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices


class ArticleGraph:
    """A directed graph; immutable once built. Use :func:`build_graph`."""

    def __init__(
        self,
        node_count: int,
        keys: np.ndarray,
        titles: Sequence[str] | None = None,
        dropped_self_loops: int = 0,
        dropped_duplicates: int = 0,
    ):
        """`keys` are the sorted, distinct edge keys src*node_count + dst."""
        self.node_count = n = int(node_count)
        self._out_indptr, self._out_indices = _csr(keys, n)
        self._in_indptr, self._in_indices = _csr(np.sort(self._out_indices * n + keys // n), n)
        self.titles = titles
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates

    @property
    def edge_count(self) -> int:
        return int(self._out_indices.size)

    def _check(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.node_count:
            raise NodeOutOfRange(f"node {node} not in [0, {self.node_count})")
        return node

    def out_neighbors(self, node: int) -> np.ndarray:
        node = self._check(node)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        node = self._check(node)
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def outdegrees(self) -> np.ndarray:
        return np.diff(self._out_indptr)

    def indegrees(self) -> np.ndarray:
        return np.diff(self._in_indptr)

    def edges(self) -> np.ndarray:
        """All edges as an (E, 2) array, lexicographically sorted."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), self.outdegrees())
        return np.column_stack([src, self._out_indices])

    @cached_property
    def _undirected(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the undirected projection (u~v iff u->v or v->u): the
        union of the out-keys u*n + v and the in-keys v*n + u, two sorted
        runs that one stable sort merges."""
        both = np.sort(np.concatenate([_keys(*self.directed_csr()), _keys(*self.in_csr())]), kind="stable")
        return _csr(both[_run_starts(both)], self.node_count)

    def undirected_neighbors(self, node: int) -> np.ndarray:
        node = self._check(node)
        indptr, indices = self._undirected
        return indices[indptr[node] : indptr[node + 1]]

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._undirected

    def directed_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._out_indptr, self._out_indices

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Reverse CSR: row v lists the sources of v's in-edges."""
        return self._in_indptr, self._in_indices


def build_graph(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    node_count: int,
    titles: Sequence[str] | None = None,
) -> ArticleGraph:
    """Construct an :class:`ArticleGraph` from an edge list.

    Self-loops and duplicate edges are silently dropped; the counts are
    kept on the graph. Raises :class:`EndpointOutOfRange` if any endpoint
    is negative or >= node_count.
    """
    node_count = int(node_count)
    if node_count < 0:
        raise EndpointOutOfRange(f"node_count must be >= 0, got {node_count}")
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise EndpointOutOfRange("edges must be (source, target) pairs")
    if titles is not None and len(titles) != node_count:
        raise EndpointOutOfRange(f"titles has {len(titles)} entries for {node_count} nodes")

    if arr.shape[0] > 0:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= node_count:
            bad = lo if lo < 0 else hi
            raise EndpointOutOfRange(f"endpoint {bad} not in [0, {node_count})")

    loops = arr[:, 0] == arr[:, 1]
    n_loops = int(loops.sum())
    arr = arr[~loops]
    # node_count**2 fits int64 for any graph whose indptr fits in memory.
    # A plain np.unique would import numpy.ma on first use (about 20 ms).
    keys = np.sort(arr[:, 0] * node_count + arr[:, 1])
    out_keys = keys[_run_starts(keys)]
    n_dups = arr.shape[0] - out_keys.size
    return ArticleGraph(node_count, out_keys, titles, dropped_self_loops=n_loops, dropped_duplicates=n_dups)


def degree_of(graph: ArticleGraph, node: int) -> DegreeSummary:
    """In-, out-, and total degree of one node."""
    return DegreeSummary(
        indegree=int(graph.in_neighbors(node).size),
        outdegree=int(graph.out_neighbors(node).size),
    )


def mean_degree(graph: ArticleGraph) -> float:
    """Average total degree, 2*E/N."""
    if graph.node_count == 0:
        raise EmptyGraph("mean degree of an empty graph is undefined")
    return 2.0 * graph.edge_count / graph.node_count
