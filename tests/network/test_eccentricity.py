"""Bounded eccentricities and BFS rows against the all-pairs reference.

``Topology.peripheral_node``, ``central_node``, ``diameter`` and
``distances_from`` are computed without the n×n hop matrix: BFS rows
per source, and eccentricity bounding for the extreme nodes.
``routing.hop_distances`` (BFS from every node) is the reference they
must equal exactly — ties included, where the lowest index wins as in
``argmax``/``argmin``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.network import Topology, builders
from repro.network.routing import hop_distances

FAMILIES = [
    builders.mesh(1, 1),
    builders.mesh(1, 9),
    builders.mesh(9, 1),
    builders.mesh(4, 4),
    builders.mesh(5, 8),
    builders.torus(3, 3),
    builders.torus(12, 12),
    builders.torus(4, 7),
    builders.hypercube(1),
    builders.hypercube(6),
    builders.ring(3),
    builders.ring(10),
    builders.ring(11),
    builders.star(2),
    builders.star(9),
    builders.complete(2),
    builders.complete(7),
    builders.tree(2, 4),
    builders.tree(3, 2),
    builders.tree(1, 5),
    builders.kary_ncube(3, 3),
    builders.kary_ncube(5, 2),
    *[builders.random_connected(n, deg, seed=s)
      for n, deg, s in ((12, 2.0, 0), (40, 3.0, 1), (60, 2.5, 2), (90, 4.0, 3), (33, 1.5, 4))],
]


def assert_matches_all_pairs(topo):
    hd = hop_distances(topo)
    ecc = hd.max(axis=1)
    assert topo.peripheral_node == int(np.argmax(ecc))
    assert topo.central_node == int(np.argmin(ecc))
    assert topo.diameter == int(ecc.max())
    n = topo.n_nodes
    sources = [n - 1, 0, n // 2, 0]
    rows = topo.distances_from(sources)
    assert rows.dtype == np.int32 and rows.shape == (4, n)
    np.testing.assert_array_equal(rows, hd[sources])


@pytest.mark.parametrize("topo", FAMILIES, ids=lambda t: t.name)
def test_matches_all_pairs_reference(topo):
    assert_matches_all_pairs(topo)


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, under a random labelling
    (so the extreme nodes land anywhere in index order)."""
    n = draw(st.integers(1, 30))
    perm = draw(st.permutations(range(n)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for v in range(1, n):
        g.add_edge(perm[v], perm[draw(st.integers(0, v - 1))])
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    g.add_edges_from((u, v) for u, v in extra if u != v)
    return g


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_generated_graphs_match_all_pairs_reference(g):
    assert_matches_all_pairs(Topology(g))


def test_large_mesh_needs_few_bfs_sources(monkeypatch):
    # The point of the bounding: a 64×64 mesh pins both extremes with
    # 14 BFS rows in total instead of 4096.
    rows = []
    original = Topology.distances_from

    def counting(self, sources):
        out = original(self, sources)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(Topology, "distances_from", counting)
    topo = builders.mesh(64, 64)
    assert (topo.peripheral_node, topo.central_node, topo.diameter) == (0, 31 * 64 + 31, 126)
    assert sum(rows) <= 32


def test_distances_from_rejects_unknown_sources():
    with pytest.raises(TopologyError):
        builders.mesh(3, 3).distances_from([9])
