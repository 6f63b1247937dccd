"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PPLBConfig, ParticlePlaneBalancer
from repro.network import LinkAttributes, mesh
from repro.tasks import TaskSystem
from repro.workloads import single_hotspot


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def mesh4():
    """A 4x4 mesh topology."""
    return mesh(4, 4)


@pytest.fixture
def mesh8():
    """An 8x8 mesh topology."""
    return mesh(8, 8)


@pytest.fixture
def hotspot_system(mesh4):
    """A 4x4 mesh with 64 unit-ish tasks piled on the central node."""
    system = TaskSystem(mesh4)
    ids = single_hotspot(system, 64, rng=0)
    return system, ids


@pytest.fixture
def uniform_links(mesh4):
    """Unit link attributes on the 4x4 mesh."""
    return LinkAttributes.uniform(mesh4)


@pytest.fixture
def default_config():
    """Default PPLB configuration."""
    return PPLBConfig()


@pytest.fixture
def pplb(default_config):
    """A fresh default PPLB balancer."""
    return ParticlePlaneBalancer(default_config)


def make_context(topology, system, *, round_index=0, seed=0, links=None,
                 task_graph=None, resources=None, up_mask=None,
                 c1=1.0, e0=1.0):
    """Hand-build a BalanceContext for direct balancer unit tests."""
    from repro.interfaces import BalanceContext
    from repro.network.links import LinkAttributes, link_costs

    links = links if links is not None else LinkAttributes.uniform(topology)
    costs = link_costs(links, c1=c1, e0=e0)
    mask = up_mask if up_mask is not None else np.ones(topology.n_edges, dtype=bool)
    return BalanceContext(
        topology=topology,
        system=system,
        links=links,
        link_costs=costs,
        up_mask=mask,
        round_index=round_index,
        rng=np.random.default_rng(seed),
        task_graph=task_graph,
        resources=resources,
    )


class ReferencePPLB(ParticlePlaneBalancer):
    """PPLB pinned to the reference decision mechanisms, the oracle of the
    equivalence suites.

    Plain PPLB takes the screened sweep whenever the screen is sound, on
    every engine, and draws, prices friction and reads floors through
    its step's shortcuts. This class undoes each of them, so every pair
    the suites compare checks the shortcuts against the plain forms:

    * Phase B is the reference sweep over every node;
    * each arbiter choice calls ``arbiter.choose(scores, t, rng)``,
      drawing straight from the generator;
    * each friction evaluation calls ``friction.mu_k`` or
      ``friction.both`` and ``_jitter`` (one ``rng.random()`` per
      factor), never a step constant or the step's draw block;
    * the no-op test reads a floor recomputed from the public task API.
    """

    def _phase_b_fast(self, s):
        self._phase_b_scalar(s)

    def _choose(self, s, scores):
        if s.probe is not None:
            s.probe.incr("balancer.arbiter_choices")
            if not self._greedy_arbiter:
                s.probe.incr("balancer.rng_draws", len(scores))
        return self.arbiter.choose(scores, s.t, s.rng)

    def _mu_k(self, s, tid, node):
        mu_k = s.friction.mu_k(s.system, s.topo, tid, node)
        return mu_k * self._jitter(s.t, s.rng, s.probe)

    def _mu_pair(self, s, tid, node):
        mu_s, mu_k = s.friction.both(s.system, s.topo, tid, node)
        jit = self._jitter(s.t, s.rng, s.probe)
        return mu_s * jit, mu_k * jit

    def _candidate_floor(self, system):
        return reference_floor(system, self.config.candidates_per_node)


def reference_floor(system, k):
    """``system.candidate_floor(k)`` recomputed from the public task API."""
    out = np.full(system.topology.n_nodes, np.inf)
    for node in range(system.topology.n_nodes):
        loads = sorted(
            (system.load_of(int(t)) for t in system.tasks_at(node)), reverse=True
        )
        if loads:
            out[node] = loads[:k][-1]
    return out


def run_on(engine_cls, spec):
    """Run *spec* through the runner's engine builder with *engine_cls*
    standing in for the class ``spec.engine`` names: the heap-driven
    oracle (``tests/heap_events.py``) has no engine name."""
    from unittest import mock

    from repro.runner import worker

    with mock.patch.dict(worker._ENGINE_CLASSES, {spec.engine: engine_cls}):
        return worker._build_engine(spec).run(max_rounds=spec.max_rounds)


def reference_balancer(algorithm, **kwargs):
    """``make_balancer(algorithm, **kwargs)`` with PPLB pinned to the
    reference sweep (:class:`ReferencePPLB`); other balancers as is."""
    from repro.runner.registry import make_balancer

    balancer = make_balancer(algorithm, **kwargs)
    if isinstance(balancer, ParticlePlaneBalancer):
        return ReferencePPLB(balancer.config)
    return balancer
