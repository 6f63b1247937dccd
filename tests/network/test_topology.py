"""Unit tests for repro.network.topology."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.network import Topology, mesh


class TestConstruction:
    def test_basic(self):
        g = nx.path_graph(3)
        t = Topology(g, name="path")
        assert t.n_nodes == 3
        assert t.n_edges == 2
        assert t.name == "path"

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_rejects_non_contiguous_labels(self):
        g = nx.Graph()
        g.add_edge(0, 2)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_self_loop(self):
        g = nx.path_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_single_node_ok(self):
        g = nx.Graph()
        g.add_node(0)
        t = Topology(g)
        assert t.n_nodes == 1
        assert t.n_edges == 0

    def test_coords_array_shape_checked(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError):
            Topology(g, coords=np.zeros((2, 2)))

    def test_coords_mapping(self):
        g = nx.path_graph(2)
        t = Topology(g, coords={0: (0.0, 0.0), 1: (1.0, 2.0)})
        np.testing.assert_allclose(t.coords[1], [1.0, 2.0])


class TestEdgeArrayConstruction:
    def test_same_topology_as_graph_input(self):
        t = Topology(np.array([[1, 2], [0, 1]]), n_nodes=3)
        assert t == Topology(nx.path_graph(3))
        np.testing.assert_array_equal(t.edges, [[0, 1], [1, 2]])

    def test_single_node(self):
        t = Topology(np.empty((0, 2), dtype=np.int64), n_nodes=1)
        assert (t.n_nodes, t.n_edges, t.diameter, t.central_node) == (1, 0, 0, 0)

    @pytest.mark.parametrize(
        "edges, n_nodes",
        [
            ([[0, 1], [1, 2]], None),  # node count missing
            ([[0, 1], [1, 2]], 0),
            ([[0, 1], [1, 3]], 3),  # endpoint out of range
            ([[0, 1], [-1, 2]], 3),
            ([[0, 1], [1, 1]], 2),  # self-loop
            ([[0, 1], [1, 0]], 2),  # repeated edge
            ([[0, 1], [2, 3]], 4),  # disconnected
        ],
    )
    def test_rejects_malformed_edge_arrays(self, edges, n_nodes):
        with pytest.raises(TopologyError):
            Topology(np.array(edges), n_nodes=n_nodes)


class TestQueries:
    def test_neighbors_sorted(self, mesh4):
        # Node 5 of a 4x4 mesh: neighbors 1, 4, 6, 9.
        np.testing.assert_array_equal(mesh4.neighbors(5), [1, 4, 6, 9])

    def test_neighbors_bounds(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.neighbors(16)
        with pytest.raises(TopologyError):
            mesh4.neighbors(-1)

    def test_degree(self, mesh4):
        # Corners 2, edges 3, interior 4.
        assert mesh4.degree[0] == 2
        assert mesh4.degree[1] == 3
        assert mesh4.degree[5] == 4
        assert mesh4.max_degree == 4

    def test_has_edge_and_edge_id(self, mesh4):
        assert mesh4.has_edge(0, 1)
        assert mesh4.has_edge(1, 0)
        assert not mesh4.has_edge(0, 5)
        eid = mesh4.edge_id(1, 0)
        assert (mesh4.edges[eid] == [0, 1]).all()
        with pytest.raises(TopologyError):
            mesh4.edge_id(0, 5)

    def test_edge_id_accepts_numpy_endpoints(self, mesh4):
        eid = mesh4.edge_id(np.int64(5), np.int64(1))
        assert type(eid) is int
        assert eid == mesh4.edge_id(1, 5)
        assert mesh4.has_edge(np.int64(5), np.int64(1))

    def test_edge_id_returns_plain_int(self, mesh4):
        for u, v in mesh4.edges.tolist():
            assert type(mesh4.edge_id(v, u)) is int

    def test_edge_id_rejects_non_edge_and_self_loop(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.edge_id(np.int64(0), np.int64(15))
        with pytest.raises(TopologyError):
            mesh4.edge_id(3, 3)
        assert not mesh4.has_edge(3, 3)

    def test_adjacency_symmetric(self, mesh4):
        a = mesh4.adjacency
        assert (a == a.T).all()
        assert a.sum() == 2 * mesh4.n_edges
        assert not a.diagonal().any()

    def test_laplacian_rows_sum_zero(self, mesh4):
        lap = mesh4.laplacian
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_hop_distances_and_diameter(self, mesh4):
        hd = mesh4.hop_distances
        assert hd[0, 0] == 0
        assert hd[0, 15] == 6  # corner to corner on 4x4 mesh
        assert mesh4.diameter == 6
        assert (hd == hd.T).all()

    def test_equality_and_hash(self):
        a, b = mesh(3, 3), mesh(3, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != mesh(3, 4)

    def test_graph_is_frozen(self, mesh4):
        with pytest.raises(nx.NetworkXError):
            mesh4.graph.add_edge(0, 15)
