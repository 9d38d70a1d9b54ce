import numpy as np
import pytest
from oracles import titles_of

from wgm.graph import build_graph
from wgm.ingest import NodeRecord, NodeTable

DATA = __import__("pathlib").Path(__file__).parent / "data"


def random_edge_list(n, e, seed):
    """e random ordered pairs; may contain self-loops and duplicates."""
    rng = np.random.default_rng(seed)
    return [(int(a), int(b)) for a, b in rng.integers(0, n, size=(e, 2))]


def distinct_random_edges(n, e, seed):
    """Exactly e distinct non-loop ordered pairs."""
    rng = np.random.default_rng(seed)
    space = n * (n - 1)
    picks = rng.choice(space, size=e, replace=False)
    edges = []
    for j in picks:
        u, r = divmod(int(j), n - 1)
        edges.append((u, r + 1 if r >= u else r))
    return edges


def seeded_graph(n, e, seed):
    return build_graph(distinct_random_edges(n, e, seed), n)


def node_table(records):
    """The columns of a list of NodeRecords, as `load_nodes` returns them."""
    return NodeTable(
        np.array([r.id for r in records], dtype=np.int64),
        np.array([r.namespace for r in records], dtype=np.int64),
        titles_of([r.title for r in records]),
    )


def node_records(table):
    """The rows of a NodeTable as NodeRecords, titles decoded."""
    return [NodeRecord(*row) for row in zip(table.id.tolist(), table.titles, table.namespace.tolist())]


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def cycle3():
    return build_graph([(0, 1), (1, 2), (2, 0)], 3)


@pytest.fixture
def star6():
    """Center 0 with out-edges to 1..5."""
    return build_graph([(0, i) for i in range(1, 6)], 6)


@pytest.fixture
def k4_bidirectional():
    return build_graph([(u, v) for u in range(4) for v in range(4) if u != v], 4)
