"""Array-native builders against the networkx builders they replaced.

``mesh``, ``torus``, ``hypercube`` and ``ring`` emit NumPy edge arrays.
The networkx builders below are frozen *verbatim* (do not modernise);
everything observable must agree with them, including the adjacency
*order* of the lazy ``Topology.graph``, on which the greedy edge
coloring of dimension exchange depends.
"""

import sys

import networkx as nx
import numpy as np
import pytest

from repro.baselines.dimension_exchange import edge_coloring
from repro.exceptions import TopologyError
from repro.network import Topology, builders

# --------------------------------------------------------------------- #
# Frozen networkx builders (verbatim copies; do not modernise).
# --------------------------------------------------------------------- #


def _grid_coords(rows: int, cols: int) -> np.ndarray:
    """Unit-square coordinates for a rows×cols grid, row-major node ids."""
    coords = np.zeros((rows * cols, 2), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            coords[r * cols + c] = (c / max(cols - 1, 1), r / max(rows - 1, 1))
    return coords


def legacy_mesh(rows: int, cols: int | None = None) -> Topology:
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise TopologyError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
    g = nx.Graph()
    g.add_nodes_from(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1)
            if r + 1 < rows:
                g.add_edge(u, u + cols)
    return Topology(g, name=f"mesh-{rows}x{cols}", coords=_grid_coords(rows, cols))


def legacy_torus(rows: int, cols: int | None = None) -> Topology:
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise TopologyError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    g = nx.Graph()
    g.add_nodes_from(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            g.add_edge(u, r * cols + (c + 1) % cols)
            g.add_edge(u, ((r + 1) % rows) * cols + c)
    return Topology(g, name=f"torus-{rows}x{cols}", coords=_grid_coords(rows, cols))


def legacy_hypercube(dim: int) -> Topology:
    if dim < 1:
        raise TopologyError(f"hypercube dimension must be >= 1, got {dim}")
    n = 1 << dim
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if v > u:
                g.add_edge(u, v)

    half = dim // 2
    lo_bits, hi_bits = half, dim - half
    lo_n, hi_n = 1 << lo_bits, 1 << hi_bits

    def gray_rank(x: int) -> int:
        # position of Gray code x along the Gray sequence
        r = 0
        while x:
            r ^= x
            x >>= 1
        return r

    coords = np.zeros((n, 2), dtype=np.float64)
    for u in range(n):
        lo = u & (lo_n - 1)
        hi = u >> lo_bits
        coords[u] = (
            gray_rank(lo) / max(lo_n - 1, 1),
            gray_rank(hi) / max(hi_n - 1, 1),
        )
    return Topology(g, name=f"hypercube-{dim}", coords=coords)


def legacy_ring(n: int) -> Topology:
    if n < 3:
        raise TopologyError(f"ring needs at least 3 nodes, got {n}")
    g = nx.cycle_graph(n)
    theta = 2 * np.pi * np.arange(n) / n
    coords = 0.5 + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    return Topology(g, name=f"ring-{n}", coords=coords)


# --------------------------------------------------------------------- #

CASES = [
    *[(builders.mesh, legacy_mesh, a) for a in ((1, 1), (1, 7), (7, 1), (4, 4), (3, 5), (6, 2))],
    *[(builders.torus, legacy_torus, a) for a in ((3, 3), (4, 6), (5, 5), (12, 12))],
    *[(builders.hypercube, legacy_hypercube, (d,)) for d in (1, 2, 3, 5)],
    *[(builders.ring, legacy_ring, (n,)) for n in (3, 4, 9)],
]
IDS = [f"{new.__name__}{args}" for new, _, args in CASES]


def adjacency_order(g):
    return [(u, list(nbrs)) for u, nbrs in g.adjacency()]


@pytest.mark.parametrize("build, legacy, args", CASES, ids=IDS)
def test_array_builder_matches_networkx_builder(build, legacy, args):
    new, old = build(*args), legacy(*args)
    assert new.name == old.name
    assert new.n_nodes == old.n_nodes
    np.testing.assert_array_equal(new.edges, old.edges)
    for field in ("indptr", "indices", "edge_ids", "rows"):
        np.testing.assert_array_equal(getattr(new.csr, field), getattr(old.csr, field))
    np.testing.assert_array_equal(new.degree, old.degree)
    for u in range(new.n_nodes):
        np.testing.assert_array_equal(new.neighbors(u), old.neighbors(u))
    assert new.coords.tobytes() == old.coords.tobytes()
    assert adjacency_order(new.graph) == adjacency_order(old.graph)
    assert nx.is_frozen(new.graph)
    if new.n_edges:
        colors_new, k_new = edge_coloring(new)
        colors_old, k_old = edge_coloring(old)
        assert k_new == k_old
        np.testing.assert_array_equal(colors_new, colors_old)


@pytest.mark.parametrize("build, legacy, args", CASES, ids=IDS)
def test_lazy_graph_is_the_copy_legacy_topologies_stored(monkeypatch, build, legacy, args):
    # The old Topology stored `nx.freeze(graph.copy())` of the builder's
    # graph; capture that graph and compare adjacency order directly.
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "Topology", lambda g, **kw: g)
    g = legacy(*args)
    assert adjacency_order(build(*args).graph) == adjacency_order(g.copy())


def test_graph_input_keeps_its_copy_order():
    # A networkx graph whose insertion order differs from sorted order:
    # nodes out of order, and edges whose copy() re-orders adjacency.
    g = nx.Graph()
    g.add_nodes_from([2, 0, 3, 1])
    g.add_edges_from([(1, 2), (0, 2), (3, 1), (3, 0)])
    topo = Topology(g)
    assert list(topo.graph.nodes) == [2, 0, 3, 1]
    assert adjacency_order(topo.graph) == adjacency_order(g.copy())
