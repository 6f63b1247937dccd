"""Property tests for the transfer-latency wire model (every run under
:class:`~tests.physics_checker.PhysicsChecker`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TaskDiffusion
from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.network import mesh
from repro.sim import Simulator
from repro.tasks import TaskSystem
from repro.workloads import single_hotspot, uniform_random
from tests.physics_checker import PhysicsChecker

_SETTINGS = dict(max_examples=12, deadline=None)


@settings(**_SETTINGS)
@given(
    latency=st.one_of(st.integers(0, 6), st.just("size")),
    n_tasks=st.integers(30, 120),
    seed=st.integers(0, 10_000),
    use_pplb=st.booleans(),
)
def test_wire_conserves_load_and_empties(latency, n_tasks, seed, use_pplb):
    """Total load (nodes + wire) is invariant; the wire drains at rest."""
    topo = mesh(5, 5)
    system = TaskSystem(topo)
    uniform_random(system, n_tasks, rng=seed)
    total0 = system.total_load
    bal = (
        ParticlePlaneBalancer(PPLBConfig(beta0=0.2))
        if use_pplb
        else TaskDiffusion()
    )
    sim = Simulator(topo, system, bal, transfer_latency=latency, seed=seed)
    res = PhysicsChecker(sim).run(max_rounds=150)
    assert system.total_load == pytest.approx(total0)
    if res.converged:
        assert system.n_in_transit == 0
        assert system.node_loads.sum() == pytest.approx(total0)
    assert (system.node_loads >= -1e-9).all()


@settings(**_SETTINGS)
@given(seed=st.integers(0, 10_000))
def test_latency_only_delays_final_placement_quality(seed):
    """With and without latency, PPLB reaches the same balance class."""
    def final_cov(latency):
        topo = mesh(5, 5)
        system = TaskSystem(topo)
        single_hotspot(system, 150, rng=seed)
        sim = Simulator(
            topo,
            system,
            ParticlePlaneBalancer(PPLBConfig(beta0=0.0)),
            transfer_latency=latency,
            seed=seed,
        )
        res = PhysicsChecker(sim).run(max_rounds=800)
        assert res.converged
        return res.final_cov

    assert abs(final_cov(0) - final_cov(3)) < 0.25
