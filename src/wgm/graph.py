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


def _csr(sources: np.ndarray, targets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) with rows keyed by `sources`.

    Requires (sources, targets) already sorted lexicographically so each
    row's index slice comes out sorted.
    """
    counts = np.bincount(sources, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, targets.astype(np.int64, copy=True)


class ArticleGraph:
    """A directed graph; immutable once built. Use :func:`build_graph`."""

    def __init__(
        self,
        node_count: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        titles: Sequence[str] | None = None,
        dropped_self_loops: int = 0,
        dropped_duplicates: int = 0,
    ):
        self.node_count = int(node_count)
        self._out_indptr = out_indptr
        self._out_indices = out_indices
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        self.titles = list(titles) if titles is not None else None
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates
        for a in (out_indptr, out_indices, in_indptr, in_indices):
            a.setflags(write=False)
        # double-entry bookkeeping: every edge appears in both directions
        assert out_indices.size == in_indices.size

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
        """CSR of the undirected projection (u~v iff u->v or v->u)."""
        e = self.edges()
        both = np.concatenate([e, e[:, ::-1]], axis=0)
        if both.size == 0:
            return np.zeros(self.node_count + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        both = np.unique(both, axis=0)
        return _csr(both[:, 0], both[:, 1], self.node_count)

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
    unique = np.unique(arr, axis=0) if arr.shape[0] else arr
    n_dups = arr.shape[0] - unique.shape[0]

    out_indptr, out_indices = _csr(unique[:, 0], unique[:, 1], node_count)
    order = np.lexsort((unique[:, 0], unique[:, 1]))
    in_indptr, in_indices = _csr(unique[order, 1], unique[order, 0], node_count)
    return ArticleGraph(
        node_count,
        out_indptr,
        out_indices,
        in_indptr,
        in_indices,
        titles=titles,
        dropped_self_loops=n_loops,
        dropped_duplicates=n_dups,
    )


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
