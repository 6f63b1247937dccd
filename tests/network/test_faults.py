"""Unit tests for repro.network.faults."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.network import FaultModel, LinkAttributes, builders, ring


class TestTransientFaults:
    def test_fault_free_links_always_up(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0)
        fm.advance(0)
        assert fm.up_mask().all()
        assert fm.link_up(0, 1)
        assert not fm.any_faults_possible

    def test_transient_rate_approximates_f(self, mesh4):
        attrs = LinkAttributes.uniform(mesh4, fault_prob=0.3)
        fm = FaultModel(attrs, rng=0)
        downs = 0
        total = 0
        for r in range(300):
            fm.advance(r)
            downs += int((~fm.up_mask()).sum())
            total += mesh4.n_edges
        assert 0.25 < downs / total < 0.35

    def test_deterministic_given_seed(self, mesh4):
        attrs = LinkAttributes.uniform(mesh4, fault_prob=0.2)
        a = FaultModel(attrs, rng=42)
        b = FaultModel(attrs, rng=42)
        for r in range(10):
            a.advance(r)
            b.advance(r)
            np.testing.assert_array_equal(a.up_mask(), b.up_mask())

    def test_rounds_must_advance(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0)
        fm.advance(0)
        with pytest.raises(ConfigurationError):
            fm.advance(0)


class TestPermanentFaults:
    def test_kill_and_repair(self, mesh4):
        fm = FaultModel(
            LinkAttributes.uniform(mesh4),
            rng=0,
            permanent={2: [(0, 1)]},
            repair_after=3,
        )
        fm.advance(0)
        assert fm.link_up(0, 1)
        fm.advance(1)
        fm.advance(2)
        assert not fm.link_up(0, 1)
        fm.advance(3)
        fm.advance(4)
        assert not fm.link_up(0, 1)
        fm.advance(5)  # repair at 2+3
        assert fm.link_up(0, 1)

    def test_kill_forever_without_repair(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0, permanent={0: [(0, 1)]})
        for r in range(5):
            fm.advance(r)
            assert not fm.link_up(0, 1)

    def test_refuses_to_disconnect(self):
        topo = ring(4)  # killing any 2 adjacent edges around one node disconnects
        fm = FaultModel(
            LinkAttributes.uniform(topo), rng=0, permanent={0: [(0, 1)], 1: [(0, 3)]}
        )
        fm.advance(0)
        with pytest.raises(TopologyError):
            fm.advance(1)

    def test_validates_edges_eagerly(self, mesh4):
        with pytest.raises(TopologyError):
            FaultModel(LinkAttributes.uniform(mesh4), permanent={0: [(0, 5)]})

    def test_validates_repair_after(self, mesh4):
        with pytest.raises(ConfigurationError):
            FaultModel(LinkAttributes.uniform(mesh4), repair_after=0)

    def test_any_faults_possible_with_permanent(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), permanent={3: [(0, 1)]})
        assert fm.any_faults_possible


class TestDisconnectCheckDifferential:
    """``_would_disconnect`` against networkx's ``is_connected`` oracle
    on every builder family, over seeded random kill sets."""

    TOPOLOGIES = [
        builders.mesh(4, 5),
        builders.torus(4),
        builders.hypercube(4),
        builders.ring(9),
        builders.star(7),
        builders.complete(6),
        builders.tree(2, 3),
        builders.kary_ncube(3, 2),
        builders.random_connected(20, avg_degree=3.0, seed=5),
        builders.mesh(1, 1),
    ]

    @staticmethod
    def _oracle(topo, down):
        g = nx.Graph()
        g.add_nodes_from(range(topo.n_nodes))
        g.add_edges_from(
            (int(u), int(v))
            for k, (u, v) in enumerate(topo.edges)
            if k not in down
        )
        return not nx.is_connected(g)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_matches_networkx(self, topo):
        fm = FaultModel(LinkAttributes.uniform(topo), rng=0)
        rng = np.random.default_rng(20261017)
        outcomes = set()
        for _ in range(40):
            size = int(rng.integers(0, topo.n_edges + 1))
            kill = rng.choice(topo.n_edges, size=size, replace=False)
            down = {int(e): None for e in kill}
            expected = self._oracle(topo, down)
            assert fm._would_disconnect(down) == expected
            outcomes.add(expected)
        if topo.n_nodes > 1:
            assert outcomes == {True, False}, "kill sets never crossed the cut"
