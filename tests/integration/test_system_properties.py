"""Property-based (hypothesis) system tests: invariants over random runs.

Every run goes through :class:`~tests.physics_checker.PhysicsChecker`,
which asserts the paper's invariants after every round.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    ContractingWithinNeighborhood,
    GradientModel,
    RandomWorkStealing,
    TaskDiffusion,
)
from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.interfaces import Balancer
from repro.network import FaultModel, LinkAttributes, mesh, ring, torus
from repro.runner.registry import FACTORIES, make_balancer
from repro.sim import EventFastSimulator, EventSimulator, Simulator
from repro.tasks import TaskSystem
from repro.workloads import (
    DynamicWorkload,
    multi_hotspot,
    single_hotspot,
    uniform_random,
)
from tests.physics_checker import PhysicsChecker

_SETTINGS = dict(max_examples=15, deadline=None)

BALANCERS = {
    0: lambda: ParticlePlaneBalancer(PPLBConfig(beta0=0.25)),
    1: lambda: ParticlePlaneBalancer(PPLBConfig(beta0=0.0)),
    2: TaskDiffusion,
    3: GradientModel,
    4: ContractingWithinNeighborhood,
    5: RandomWorkStealing,
}

TOPOLOGIES = {
    0: lambda: mesh(5, 5),
    1: lambda: torus(5, 5),
    2: lambda: ring(12),
}

DISTRIBUTIONS = {
    0: single_hotspot,
    1: uniform_random,
    2: multi_hotspot,
}


@settings(**_SETTINGS)
@given(
    bal_key=st.integers(0, 5),
    topo_key=st.integers(0, 2),
    dist_key=st.integers(0, 2),
    n_tasks=st.integers(20, 150),
    seed=st.integers(0, 10_000),
)
def test_load_conserved_and_no_negative_loads(bal_key, topo_key, dist_key, n_tasks, seed):
    """Invariant: balancers relocate load, never create or destroy it."""
    topo = TOPOLOGIES[topo_key]()
    system = TaskSystem(topo)
    DISTRIBUTIONS[dist_key](system, n_tasks, rng=seed)
    total0 = system.total_load
    n0 = system.n_tasks
    sim = Simulator(topo, system, BALANCERS[bal_key](), seed=seed)
    res = PhysicsChecker(sim).run(max_rounds=60)
    assert system.total_load == pytest.approx(total0)
    assert system.n_tasks == n0
    assert (system.node_loads >= -1e-9).all()
    # recorded totals are self-consistent
    assert res.total_migrations == sum(r.n_migrations for r in res.records)


@settings(**_SETTINGS)
@given(
    bal_key=st.integers(0, 5),
    n_tasks=st.integers(30, 120),
    seed=st.integers(0, 10_000),
)
def test_never_worse_than_double_initial_imbalance(bal_key, n_tasks, seed):
    """Balancers may dither but must not blow the imbalance up."""
    topo = mesh(5, 5)
    system = TaskSystem(topo)
    uniform_random(system, n_tasks, rng=seed)
    sim = Simulator(topo, system, BALANCERS[bal_key](), seed=seed)
    res = PhysicsChecker(sim).run(max_rounds=80)
    # Tolerance: discrete task moves can transiently bump CoV on nearly
    # balanced systems; 2x initial + one-task slack is a real safety net.
    mean = res.initial_summary["mean"]
    slack = 2.0 / max(mean, 1e-9)
    assert res.final_cov <= 2.0 * res.initial_summary["cov"] + slack


@settings(**_SETTINGS)
@given(seed=st.integers(0, 10_000), n_tasks=st.integers(50, 200))
def test_pplb_beats_noop_on_hotspots(seed, n_tasks):
    topo = mesh(5, 5)
    system = TaskSystem(topo)
    single_hotspot(system, n_tasks, rng=seed)
    sim = Simulator(
        topo, system, ParticlePlaneBalancer(PPLBConfig(beta0=0.25)), seed=seed
    )
    res = PhysicsChecker(sim).run(max_rounds=120)
    assert res.final_cov < res.initial_summary["cov"] / 2


@settings(**_SETTINGS)
@given(seed=st.integers(0, 10_000))
def test_flat_system_stays_flat(seed):
    """Control: a balanced system generates no traffic (µs > 0)."""
    from repro.workloads import balanced

    topo = mesh(5, 5)
    system = TaskSystem(topo)
    balanced(system, tasks_per_node=3, rng=seed)
    sim = Simulator(
        topo, system, ParticlePlaneBalancer(PPLBConfig(beta0=0.25)), seed=seed
    )
    res = PhysicsChecker(sim).run(max_rounds=30)
    assert res.total_migrations == 0
    assert res.final_cov == pytest.approx(0.0, abs=1e-12)


class FaultBlind(Balancer):
    """Plans as if every link were up, so the engine alone must refuse
    transfers over failed links (every registered balancer reads the
    up mask itself)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def reset(self, ctx):
        self.inner.reset(ctx)

    def step(self, ctx):
        all_up = np.ones_like(ctx.up_mask)
        return self.inner.step(dataclasses.replace(ctx, up_mask=all_up))

    def idle(self):
        return self.inner.idle()


@pytest.mark.parametrize(
    "engine_cls", [Simulator, EventSimulator, EventFastSimulator],
    ids=lambda cls: cls.__name__,
)
@pytest.mark.parametrize("algorithm", sorted(FACTORIES))
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_tasks=st.integers(20, 90),
    fault_prob=st.sampled_from([0.0, 0.2]),
    latency=st.sampled_from([0, 1, 3, "size"]),
    churn=st.booleans(),
    link_capacity=st.integers(1, 2),
    wake_jitter=st.sampled_from([0.0, 0.3]),
    fault_blind=st.booleans(),
)
def test_physics_holds_every_round(engine_cls, algorithm, seed, n_tasks,
                                   fault_prob, latency, churn, link_capacity,
                                   wake_jitter, fault_blind):
    """Every engine × every algorithm, under faults, latency and churn
    (and desynchronised clocks on the event engines)."""
    topo = mesh(4, 4)
    links = LinkAttributes.uniform(topo, fault_prob=fault_prob)
    system = TaskSystem(topo)
    single_hotspot(system, n_tasks, rng=seed)
    kwargs = dict(
        links=links,
        fault_model=FaultModel(links, rng=seed) if fault_prob else None,
        dynamic=(DynamicWorkload(arrival_rate=2.0, completion_prob=0.03, rng=seed)
                 if churn else None),
        link_capacity=link_capacity,
        transfer_latency=latency,
        seed=seed,
    )
    if engine_cls is not Simulator:
        if latency != "size":
            kwargs["transfer_latency"] = 0.4 * latency
        kwargs["wake_jitter"] = wake_jitter
    balancer = make_balancer(algorithm)
    if fault_blind:
        balancer = FaultBlind(balancer)
    sim = engine_cls(topo, system, balancer, **kwargs)
    PhysicsChecker(sim).run(max_rounds=40)
