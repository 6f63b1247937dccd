"""Unit tests for repro.core.surface and repro.core.energy."""

import numpy as np
import pytest

from repro.core import (
    MotionState,
    NeighborCache,
    hop_heat_energy,
    hop_height_drop,
    tan_beta,
    tan_beta_corrected,
)
from repro.exceptions import ConfigurationError


class TestSlopes:
    def test_tan_beta(self):
        assert tan_beta(10.0, 4.0, 2.0) == pytest.approx(3.0)

    def test_tan_beta_corrected(self):
        # (h_i - h_j - 2l)/e : moving l=2 across flattens by 4
        assert tan_beta_corrected(10.0, 4.0, 2.0, 2.0) == pytest.approx(1.0)

    def test_corrected_equals_raw_for_zero_load(self):
        assert tan_beta_corrected(7.0, 3.0, 0.0, 1.0) == tan_beta(7.0, 3.0, 1.0)

    def test_negative_slope_uphill(self):
        assert tan_beta(1.0, 5.0, 1.0) < 0


class TestNeighborCache:
    def test_matches_topology(self, mesh4):
        cache = NeighborCache(mesh4)
        for i in range(mesh4.n_nodes):
            assert cache.nbrs_l[i] == mesh4.neighbors(i).tolist()
            for j, eid in zip(cache.nbrs_l[i], cache.eids_l[i]):
                assert mesh4.edge_id(i, j) == eid
            assert cache.degree(i) == mesh4.degree[i]
            # Plain ints: the decision bodies index lists and arrays with them.
            assert all(type(x) is int for x in cache.nbrs_l[i] + cache.eids_l[i])

    def test_slope_scan(self, mesh4):
        cache = NeighborCache(mesh4)
        h = np.arange(16, dtype=float)
        e = np.ones(mesh4.n_edges)
        i = 5
        slopes = [(h[i] - h[j]) / e[eid]
                  for j, eid in zip(cache.nbrs_l[i], cache.eids_l[i])]
        # neighbors of 5 are [1, 4, 6, 9] -> slopes 4, 1, -1, -4
        np.testing.assert_allclose(slopes, [4.0, 1.0, -1.0, -4.0])


class TestEnergyHelpers:
    def test_hop_height_drop(self):
        assert hop_height_drop(2.0, 0.25, 3.0) == pytest.approx(1.5)

    def test_hop_heat_energy(self):
        # E_h = g * l * drop
        assert hop_heat_energy(9.81, 2.0, 0.5) == pytest.approx(9.81)

    def test_negative_drop_rejected(self):
        with pytest.raises(ConfigurationError):
            hop_height_drop(-1.0, 0.5, 1.0)


class TestMotionState:
    def test_record_hop(self):
        st = MotionState(hstar=10.0, origin=3, released_at=7)
        st.record_hop(height_drop=0.5, heat=2.0, from_node=3)
        st.record_hop(height_drop=0.25, heat=1.0, from_node=4)
        assert st.hstar == pytest.approx(9.25)
        assert st.hops == 2
        assert st.heat == pytest.approx(3.0)
        assert st.prev_node == 4
        assert st.origin == 3
        assert st.released_at == 7
