"""Topology builders: the networks the paper (and its citations) evaluate on.

Every builder returns a :class:`~repro.network.topology.Topology` with
integer nodes ``0..n-1`` and a natural 2-D embedding (the paper's ``M2``
mapping, §4.1). Mesh/torus/hypercube are the topologies the paper's
related work derives optimal diffusion parameters for [19] and proves
dimension-exchange results on [6]; ring/star/tree/complete/random round
out the test matrix.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng


def _per_node_edges(targets: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Edge rows ``(u, targets[u, j])``, node-major then column order,
    dropping the slots where *keep* is False.

    The row order is the edges' insertion order, which fixes the
    adjacency order of :attr:`Topology.graph` (see there).
    """
    n, k = targets.shape
    sources = np.broadcast_to(np.arange(n)[:, None], (n, k))
    pairs = np.stack([sources, targets], axis=-1)
    return pairs.reshape(-1, 2) if keep is None else pairs[keep]


def _grid_coords(rows: int, cols: int) -> np.ndarray:
    """Unit-square coordinates for a rows×cols grid, row-major node ids."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.column_stack([c / max(cols - 1, 1), r / max(rows - 1, 1)])


def mesh(rows: int, cols: int | None = None) -> Topology:
    """2-D mesh (grid) of *rows* × *cols* nodes, row-major ids.

    The paper's primary visual analogy: the load surface literally is a
    height map over this grid.
    """
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise TopologyError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
    u = np.arange(rows * cols)
    r, c = np.divmod(u, cols)
    edges = _per_node_edges(
        np.column_stack([u + 1, u + cols]), np.column_stack([c + 1 < cols, r + 1 < rows])
    )
    return Topology(
        edges, name=f"mesh-{rows}x{cols}", coords=_grid_coords(rows, cols), n_nodes=rows * cols
    )


def torus(rows: int, cols: int | None = None) -> Topology:
    """2-D torus: mesh with wraparound links in both dimensions.

    Requires at least 3 nodes per wrapped dimension so wrap links are not
    duplicates of mesh links.
    """
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise TopologyError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    right, down = r * cols + (c + 1) % cols, (r + 1) % rows * cols + c
    edges = _per_node_edges(np.column_stack([right, down]))
    return Topology(
        edges, name=f"torus-{rows}x{cols}", coords=_grid_coords(rows, cols), n_nodes=rows * cols
    )


def hypercube(dim: int) -> Topology:
    """*dim*-dimensional binary hypercube, ``2**dim`` nodes.

    Node ids are the binary labels; two nodes are adjacent iff their
    labels differ in exactly one bit. Embedded in 2-D by splitting the
    label bits between the axes (Gray-coded so single-bit neighbors stay
    geometrically close — a planar-ish drawing of the cube).
    """
    if dim < 1:
        raise TopologyError(f"hypercube dimension must be >= 1, got {dim}")
    n = 1 << dim
    u = np.arange(n)
    flips = u[:, None] ^ (1 << np.arange(dim))
    edges = _per_node_edges(flips, flips > u[:, None])

    half = dim // 2
    lo_bits, hi_bits = half, dim - half
    lo_n, hi_n = 1 << lo_bits, 1 << hi_bits

    def gray_rank(x: np.ndarray) -> np.ndarray:
        # position of Gray code x along the Gray sequence (prefix XOR)
        r = x.copy()
        x = x >> 1
        while x.any():
            r ^= x
            x >>= 1
        return r

    coords = np.column_stack([
        gray_rank(u & (lo_n - 1)) / max(lo_n - 1, 1),
        gray_rank(u >> lo_bits) / max(hi_n - 1, 1),
    ])
    return Topology(edges, name=f"hypercube-{dim}", coords=coords, n_nodes=n)


def ring(n: int) -> Topology:
    """Cycle of *n* >= 3 nodes, embedded on the unit circle."""
    if n < 3:
        raise TopologyError(f"ring needs at least 3 nodes, got {n}")
    u = np.arange(n)
    edges = _per_node_edges(((u + 1) % n)[:, None])
    theta = 2 * np.pi * np.arange(n) / n
    coords = 0.5 + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    return Topology(edges, name=f"ring-{n}", coords=coords, n_nodes=n)


def star(n: int) -> Topology:
    """Star: node 0 is the hub connected to ``n-1`` leaves."""
    if n < 2:
        raise TopologyError(f"star needs at least 2 nodes, got {n}")
    import networkx as nx

    g = nx.star_graph(n - 1)
    coords = np.zeros((n, 2), dtype=np.float64)
    coords[0] = (0.5, 0.5)
    theta = 2 * np.pi * np.arange(n - 1) / max(n - 1, 1)
    coords[1:] = 0.5 + 0.45 * np.column_stack([np.cos(theta), np.sin(theta)])
    return Topology(g, name=f"star-{n}", coords=coords)


def complete(n: int) -> Topology:
    """Complete graph: the LAN-style 'all nodes adjacent' setting of §1."""
    if n < 2:
        raise TopologyError(f"complete graph needs at least 2 nodes, got {n}")
    import networkx as nx

    g = nx.complete_graph(n)
    theta = 2 * np.pi * np.arange(n) / n
    coords = 0.5 + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    return Topology(g, name=f"complete-{n}", coords=coords)


def tree(branching: int, depth: int) -> Topology:
    """Complete *branching*-ary tree of the given *depth* (root = node 0)."""
    if branching < 1 or depth < 0:
        raise TopologyError(f"invalid tree parameters: branching={branching}, depth={depth}")
    import networkx as nx

    g = nx.balanced_tree(branching, depth)
    n = g.number_of_nodes()
    coords = np.zeros((n, 2), dtype=np.float64)
    # BFS layering for y; in-layer index for x.
    from collections import deque

    level: dict[int, int] = {0: 0}
    order: list[list[int]] = [[0]]
    q = deque([0])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in level:
                level[v] = level[u] + 1
                while len(order) <= level[v]:
                    order.append([])
                order[level[v]].append(v)
                q.append(v)
    for lvl, nodes in enumerate(order):
        for k, u in enumerate(nodes):
            coords[u] = ((k + 0.5) / len(nodes), 1.0 - lvl / max(depth, 1))
    return Topology(g, name=f"tree-{branching}ary-d{depth}", coords=coords)


def kary_ncube(k: int, n: int) -> Topology:
    """k-ary n-cube: n dimensions of k nodes each, wrapped (k >= 3).

    The family that unifies the paper's evaluation topologies: a ring is
    ``kary_ncube(k, 1)``, a k×k torus is ``kary_ncube(k, 2)``, and the
    binary hypercube is the (unwrapped) ``k = 2`` limit — for ``k = 2``
    this builder returns :func:`hypercube` (wrap links would duplicate
    mesh links).

    Node id = mixed-radix encoding of its coordinate vector. Embedded in
    2-D by splitting the dimensions across the two axes.
    """
    if n < 1:
        raise TopologyError(f"need n >= 1 dimensions, got {n}")
    if k == 2:
        return hypercube(n)
    if k < 3:
        raise TopologyError(f"need k >= 3 (or exactly 2 for the hypercube), got {k}")
    import networkx as nx

    total = k**n
    g = nx.Graph()
    g.add_nodes_from(range(total))

    def coords_of(u: int) -> list[int]:
        out = []
        for _ in range(n):
            out.append(u % k)
            u //= k
        return out

    for u in range(total):
        cu = coords_of(u)
        for d in range(n):
            cv = list(cu)
            cv[d] = (cv[d] + 1) % k
            v = sum(c * k**i for i, c in enumerate(cv))
            g.add_edge(u, v)

    # 2-D embedding: even dimensions -> x, odd dimensions -> y.
    coords = np.zeros((total, 2), dtype=np.float64)
    x_dims = list(range(0, n, 2))
    y_dims = list(range(1, n, 2))
    x_span = max(k ** len(x_dims) - 1, 1)
    y_span = max(k ** len(y_dims) - 1, 1)
    for u in range(total):
        cu = coords_of(u)
        x = sum(cu[d] * k**i for i, d in enumerate(x_dims))
        y = sum(cu[d] * k**i for i, d in enumerate(y_dims))
        coords[u] = (x / x_span, y / y_span)
    return Topology(g, name=f"kary-{k}-{n}cube", coords=coords)


def random_connected(n: int, avg_degree: float = 4.0, seed: RngLike = None) -> Topology:
    """Connected Erdős–Rényi-style random topology.

    Draws ``G(n, p)`` with ``p = avg_degree/(n-1)`` and, if disconnected,
    joins components with random bridge edges (so degree stays close to
    the target instead of resampling until lucky). Deterministic given
    *seed*.
    """
    if n < 2:
        raise TopologyError(f"random topology needs at least 2 nodes, got {n}")
    rng = ensure_rng(seed)
    import networkx as nx

    p = min(max(avg_degree / max(n - 1, 1), 0.0), 1.0)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    iu, ju = np.triu_indices(n, k=1)
    take = rng.random(iu.shape[0]) < p
    g.add_edges_from(zip(iu[take].tolist(), ju[take].tolist()))
    comps = [list(c) for c in nx.connected_components(g)]
    while len(comps) > 1:
        a = comps.pop()
        b = comps[-1]
        u = int(rng.choice(a))
        v = int(rng.choice(b))
        g.add_edge(u, v)
        comps[-1] = b + a
    pos = nx.spring_layout(g, seed=int(rng.integers(0, 2**31 - 1)))
    coords = np.asarray([pos[i] for i in range(n)], dtype=np.float64)
    coords -= coords.min(axis=0)
    span = coords.max(axis=0)
    span[span == 0] = 1.0
    coords /= span
    return Topology(g, name=f"random-{n}", coords=coords)
