"""Scenario construction never builds the all-pairs hop matrix.

At 4096 nodes that matrix is 134 MB and seconds of BFS; placements
need only a few BFS rows (``Topology.distances_from``) and the bounded
extreme nodes (``peripheral_node``, ``central_node``). This tripwire
makes ``Topology.hop_distances`` raise, then builds every placement
family that needs hop distances on a 64×64 mesh.
"""

import pytest

from repro.network import Topology
from repro.workloads import build_scenario


@pytest.fixture
def no_all_pairs(monkeypatch):
    def tripwire(self):
        raise AssertionError(f"all-pairs hop matrix built for {self.name}")

    monkeypatch.setattr(Topology, "hop_distances", property(tripwire))


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("mesh:64x64+clustered:n_tasks=256", {}),
        ("mesh-4096", {"n_tasks": 256}),
        ("mesh:64x64+power-law:n_tasks=256", {}),
        ("hotspot-scaled", {"side": 64, "n_tasks": 256}),
        ("mesh-two-valleys", {"side": 64, "n_tasks": 256}),
        ("mesh:64x64+blob:n_tasks=256", {}),
    ],
)
def test_large_scenarios_build_without_all_pairs(no_all_pairs, name, kwargs):
    scenario = build_scenario(name, 0, **kwargs)
    assert scenario.topology.n_nodes == 4096
    assert scenario.system.n_tasks == 256
