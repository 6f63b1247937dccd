"""Topology: the interconnection graph ``G(V, E)`` (paper §4.2).

Nodes are the integers ``0 .. n-1``. The class is built from an edge
array and keeps three views of the same graph:

* array form — an ``(m, 2)`` edge array, per-node neighbor arrays and
  a flat :class:`CSRAdjacency` export — for the vectorised hot paths of
  the balancers and for BFS over SciPy's sparse graph routines,
* a :class:`networkx.Graph`, built on first use, for the few algorithms
  that want one (edge colorings, spring layouts),
* a 2-D embedding (the paper's ``M2: V(G) → R²``) used for the load
  surface, for locality metrics and for ASCII rendering.

Instances are immutable after construction; fault state lives in
:class:`repro.network.faults.FaultModel`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.exceptions import TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: largest number of BFS sources handed to one ``dijkstra`` call by the
#: eccentricity bounding pass (bounds the ``(k, n)`` working set).
_MAX_BFS_BATCH = 256


@dataclass(frozen=True)
class CSRAdjacency:
    """Compressed-sparse-row view of an undirected topology.

    The flat form of the per-node neighbor lists: slot ``s`` in
    ``indptr[u] <= s < indptr[u + 1]`` holds neighbor ``indices[s]`` of
    node ``u``, reached over edge ``edge_ids[s]`` (an index into
    :attr:`Topology.edges` and every per-edge attribute array: link
    costs, fault masks, usage reservations). ``rows[s]`` is ``u`` itself
    — the ``np.repeat`` companion that lets whole-graph expressions like
    ``h[rows] - h[indices]`` evaluate every directed (node, neighbor)
    pair in one array operation. Neighbors are sorted within each row,
    matching :meth:`Topology.neighbors`.

    This is the export the vectorised balancer fast path and any future
    array-at-scale consumer build on; it is immutable and shared.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    rows: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes (rows)."""
        return self.indptr.shape[0] - 1

    @property
    def n_slots(self) -> int:
        """Number of directed (node, neighbor) slots: ``2·m``."""
        return self.indices.shape[0]

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of *node* (view into :attr:`indices`)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def incident_edges(self, node: int) -> np.ndarray:
        """Edge ids of *node*'s links, parallel to :meth:`neighbors`."""
        return self.edge_ids[self.indptr[node]:self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        """Per-node degree vector derived from :attr:`indptr`."""
        return np.diff(self.indptr)


class Topology:
    """An immutable interconnection network over nodes ``0..n-1``.

    Parameters
    ----------
    graph:
        Either an ``(m, 2)`` integer edge array over nodes
        ``0..n_nodes-1`` — the form the regular builders emit — or a
        connected undirected :class:`networkx.Graph` whose nodes are
        exactly ``range(n)``, which is converted to an edge array on
        entry. Self-loops and repeated edges are rejected.
    name:
        Human-readable identifier (used in benchmark tables).
    coords:
        Optional mapping/array of 2-D coordinates per node (the ``M2``
        embedding). When omitted a spring layout is computed lazily.
    n_nodes:
        Number of nodes; required with an edge array (a one-node
        network has no edge to infer it from).
    """

    def __init__(
        self,
        graph: nx.Graph | np.ndarray,
        name: str = "custom",
        coords: Mapping[int, Iterable[float]] | np.ndarray | None = None,
        n_nodes: int | None = None,
    ):
        node_order = None
        if isinstance(graph, np.ndarray):
            if n_nodes is None:
                raise TopologyError("an edge-array topology needs n_nodes")
            n = int(n_nodes)
            edge_seq = graph.astype(np.int64).reshape(-1, 2)
        else:
            n = graph.number_of_nodes()
            if n > 0 and set(graph.nodes) != set(range(n)):
                raise TopologyError(
                    "graph nodes must be exactly 0..n-1; relabel before wrapping"
                )
            edge_seq = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
            nodes = list(graph.nodes)
            if nodes != list(range(n)):
                node_order = nodes
        if n < 1:
            raise TopologyError("topology must have at least one node")
        if edge_seq.size and (edge_seq.min() < 0 or edge_seq.max() >= n):
            raise TopologyError(f"edge endpoints must be nodes 0..{n - 1}")
        if (edge_seq[:, 0] == edge_seq[:, 1]).any():
            raise TopologyError("self-loops are not allowed")

        canon = np.sort(edge_seq, axis=1)
        edges = canon[np.lexsort((canon[:, 1], canon[:, 0]))]
        if (edges[1:] == edges[:-1]).all(axis=1).any():
            raise TopologyError("repeated edges are not allowed")

        self.name = name
        self.n_nodes = n
        self.edges = edges
        self.n_edges = edges.shape[0]
        # Insertion order of the lazy networkx view (see `graph`).
        self._edge_seq = edge_seq
        self._node_order = node_order

        self.degree = self.csr.degrees()
        if n > 1 and connected_components(self._sparse, directed=False)[0] != 1:
            raise TopologyError("topology must be connected")

        if coords is not None:
            arr = np.zeros((n, 2), dtype=np.float64)
            if isinstance(coords, np.ndarray):
                if coords.shape != (n, 2):
                    raise TopologyError(
                        f"coords array must have shape ({n}, 2), got {coords.shape}"
                    )
                arr[:] = coords
            else:
                for node, xy in coords.items():
                    arr[int(node)] = np.asarray(tuple(xy), dtype=np.float64)
            self._coords: np.ndarray | None = arr
        else:
            self._coords = None

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @cached_property
    def graph(self) -> nx.Graph:
        """The (frozen) networkx view of the topology, built on first use.

        Its adjacency order is part of the contract: order-sensitive
        consumers such as the greedy edge coloring of
        :func:`~repro.baselines.dimension_exchange.edge_coloring` depend
        on it. The view is the ``copy()`` of a graph that received the
        nodes and then the edges in the order they were given at
        construction — exactly what wrapping that networkx graph always
        produced.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes) if self._node_order is None else self._node_order)
        g.add_edges_from(self._edge_seq.tolist())
        return nx.freeze(g.copy())

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of *node* (read-only array)."""
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.n_nodes})")
        return self._neighbors[node]

    @property
    def coords(self) -> np.ndarray:
        """2-D embedding ``M2`` of the nodes, shape ``(n, 2)``.

        Computed with a deterministic spring layout when the builder did
        not supply natural coordinates.
        """
        if self._coords is None:
            import networkx as nx

            pos = nx.spring_layout(self.graph, seed=0)
            self._coords = np.asarray([pos[i] for i in range(self.n_nodes)], dtype=np.float64)
        return self._coords

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is a link of the network."""
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge ``{u, v}`` into :attr:`edges` / per-edge arrays.

        A plain ``int`` for any integer endpoints (NumPy ones hash and
        compare like Python ints, so the lookup needs no conversion).
        """
        try:
            return self._edge_index[(u, v) if u < v else (v, u)]
        except KeyError:
            raise TopologyError(f"no edge between {u} and {v} in topology '{self.name}'")

    # ------------------------------------------------------------------ #
    # Derived structure (cached)
    # ------------------------------------------------------------------ #

    @cached_property
    def csr(self) -> CSRAdjacency:
        """CSR/array export of the adjacency (see :class:`CSRAdjacency`).

        Built fully vectorised (no per-node Python loop), so it is cheap
        even for the large-N topologies; the arrays are marked read-only
        because every consumer shares them.
        """
        n = self.n_nodes
        m = self.n_edges
        if m == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            empty = np.empty(0, dtype=np.int64)
            return CSRAdjacency(indptr, empty, empty.copy(), empty.copy())
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
        order = np.lexsort((cols, rows))
        rows, cols, eids = rows[order], cols[order], eids[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for arr in (indptr, cols, eids, rows):
            arr.flags.writeable = False
        return CSRAdjacency(indptr, cols, eids, rows)

    @cached_property
    def _neighbors(self) -> list[np.ndarray]:
        """Per-node neighbor arrays: read-only views into ``csr.indices``."""
        return np.split(self.csr.indices, self.csr.indptr[1:-1])

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        """Edge lookup: (min, max) -> edge index, for per-edge attribute arrays."""
        return {(u, v): k for k, (u, v) in enumerate(self.edges.tolist())}

    @cached_property
    def _sparse(self) -> csr_matrix:
        """The adjacency as a SciPy sparse matrix, for the csgraph routines.

        ``float64`` ones, the dtype csgraph works in, so no call converts
        (and re-validates) the matrix. The CSR holds both directions of
        every edge, so it is already symmetric.
        """
        csr = self.csr
        data = np.ones(csr.n_slots, dtype=np.float64)
        return csr_matrix((data, csr.indices, csr.indptr), shape=(self.n_nodes, self.n_nodes))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix, shape ``(n, n)``."""
        a = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        a[self.edges[:, 0], self.edges[:, 1]] = True
        a[self.edges[:, 1], self.edges[:, 0]] = True
        return a

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Dense graph Laplacian ``L = D − A`` as float64."""
        a = self.adjacency.astype(np.float64)
        return np.diag(a.sum(axis=1)) - a

    @cached_property
    def hop_distances(self) -> np.ndarray:
        """All-pairs unweighted hop distances, shape ``(n, n)`` (int32).

        Quadratic in time and memory; scenario construction avoids it
        (see :meth:`distances_from`, :attr:`peripheral_node`).
        """
        from repro.network.routing import hop_distances

        return hop_distances(self)

    def distances_from(self, sources: Iterable[int]) -> np.ndarray:
        """Hop distances from each of *sources* to every node.

        Shape ``(k, n)``, int32: row ``i`` equals
        ``hop_distances[sources[i]]``, from one BFS per source instead of
        the all-pairs matrix. The adjacency is symmetric, so the BFS runs
        as SciPy's directed unweighted search, which skips symmetrising
        the matrix on every call.
        """
        idx = np.asarray(sources, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_nodes):
            raise TopologyError(f"sources out of range [0, {self.n_nodes})")
        d = dijkstra(self._sparse, directed=True, unweighted=True, indices=idx)
        return d.reshape(idx.shape[0], self.n_nodes).astype(np.int32)

    @cached_property
    def _periphery(self) -> tuple[int, int]:
        return self._extreme_eccentricity(largest=True)

    @cached_property
    def _center(self) -> tuple[int, int]:
        return self._extreme_eccentricity(largest=False)

    @property
    def peripheral_node(self) -> int:
        """Lowest-index node of maximum eccentricity: ``argmax`` of the
        row maxima of :attr:`hop_distances`, computed without it."""
        return self._periphery[0]

    @property
    def central_node(self) -> int:
        """Lowest-index node of minimum eccentricity: ``argmin`` of the
        row maxima of :attr:`hop_distances`, computed without it."""
        return self._center[0]

    @property
    def diameter(self) -> int:
        """Graph diameter in hops (the eccentricity of :attr:`peripheral_node`)."""
        return self._periphery[1]

    def _extreme_eccentricity(self, largest: bool) -> tuple[int, int]:
        """``(node, eccentricity)`` of the lowest-index node of maximum
        (*largest*) or minimum eccentricity, by eccentricity bounding
        (Takes & Kosters, CIKM 2011).

        A BFS from ``s`` gives ``s``'s exact eccentricity ``e_s`` and, by
        the triangle inequality, bounds every node ``v``:
        ``max(d_s(v), e_s − d_s(v)) <= ecc(v) <= d_s(v) + e_s``. Sources
        run in batches of doubling size (at most :data:`_MAX_BFS_BATCH`
        rows per call) until the bounds pin the answer. For the maximum
        that is: ``max lb == max ub =: D`` and the lowest-index ``v``
        with ``ub(v) >= D`` has ``lb(v) == D`` — every lower-index node
        is then provably below ``D``. The minimum is the mirror image,
        run here on the negated bounds. On graphs where every node looks
        the same (torus, hypercube) the bounds only close once every
        node has been a source: the all-pairs BFS count, no more.
        """
        n = self.n_nodes
        lb = np.zeros(n, dtype=np.int32)
        ub = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
        unused = np.ones(n, dtype=bool)
        batch = 1
        while True:
            # Maximise in (lo, hi) space: the negated bounds for the minimum.
            lo, hi = (lb, ub) if largest else (-ub, -lb)
            sources = _pick_sources(lo, hi, unused, batch)
            d = self.distances_from(sources)
            ecc = d.max(axis=1, keepdims=True)
            np.maximum(lb, np.maximum(d.max(axis=0), (ecc - d).max(axis=0)), out=lb)
            np.minimum(ub, (d + ecc).min(axis=0), out=ub)
            unused[sources] = False
            lo, hi = (lb, ub) if largest else (-ub, -lb)
            best = lo.max()
            if hi.max() == best:
                v = int(np.argmax(hi >= best))
                if lo[v] == best:
                    return v, abs(int(best))
            batch = min(2 * batch, _MAX_BFS_BATCH)

    @cached_property
    def max_degree(self) -> int:
        """Maximum node degree."""
        return int(self.degree.max())

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology('{self.name}', n={self.n_nodes}, m={self.n_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.edges.shape == other.edges.shape
            and bool((self.edges == other.edges).all())
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.edges.tobytes()))


def _pick_sources(lo: np.ndarray, hi: np.ndarray, unused: np.ndarray, k: int) -> np.ndarray:
    """The next *k* BFS sources of the bounding pass (which maximises).

    Alternates the two kinds of useful source, as Takes & Kosters do:
    half the batch is the nodes that could still be the answer (largest
    upper bound), the rest the nodes at the opposite extreme (smallest
    lower bound), whose BFS rows tighten everyone else's bounds. Ties go
    to the lowest index.
    """
    cand = np.flatnonzero(unused)
    if cand.shape[0] <= k:
        return cand
    top = cand[np.argsort(-hi[cand], kind="stable")[: (k + 1) // 2]]
    rest = np.setdiff1d(cand, top, assume_unique=True)
    low = rest[np.argsort(lo[rest], kind="stable")[: k // 2]]
    return np.concatenate([top, low])
