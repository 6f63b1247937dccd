"""Seeded fuzz: composed-grammar scenarios through three engines.

Property: for *any* workload the composition grammar can express, the
columnar event engine reproduces the heap-driven oracle
(:class:`~tests.heap_events.HeapEventSimulator`) bit for bit — and
under unit clocks both reproduce the synchronous engine. The oracle
runs PPLB pinned to the reference Phase-B sweep
(:class:`~tests.conftest.ReferencePPLB`), so every pair compared has one
side that visits every node. The scenario pool is the
:func:`repro.runner.spec.expand_component_grid` cross product over
topology × placement × links × heterogeneity × dynamics axes; a seeded sampler draws a fixed pseudo-random subset so
the suite stays fast while every run exercises the same (reproducible)
slice. Bump ``FUZZ_SEED`` to re-roll the slice. Every run goes through
:class:`~tests.physics_checker.PhysicsChecker`, so each engine must also
keep the paper's invariants round by round.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest

from repro.runner.registry import make_balancer
from repro.runner.spec import expand_component_grid, grid_seeds
from repro.sim import EventSimulator, Simulator
from repro.workloads import build_scenario
from tests.conftest import reference_balancer
from tests.heap_events import HeapEventSimulator
from tests.physics_checker import PhysicsChecker

FUZZ_SEED = 20260807
N_SAMPLES = 8

#: component axes — every kind of the grammar is represented, sizes
#: kept small so a sampled run finishes in well under a second.
TOPOLOGIES = ["mesh:6x6", "torus:6x6", "hypercube:4", "ring:24", "kary:k=3,n=3"]
PLACEMENTS = [
    "hotspot:n_tasks=140",
    "uniform:n_tasks=140",
    "clustered:n_tasks=140",
    "power-law:n_tasks=140",
    "two-valleys:n_tasks=140",
]
LINKS = ["unit", "jittered", "faulty:fault=0.05"]
HETEROGENEITY = [None, "stragglers:frac=0.2"]
DYNAMICS = [None, "churn:rate=3.0", "diurnal"]
ALGORITHMS = ["pplb", "diffusion", "work-stealing", "gradient-model"]


def _sampled_specs():
    """A deterministic pseudo-random slice of the full component grid."""
    pool = expand_component_grid(
        ALGORITHMS,
        grid_seeds(2),
        topologies=TOPOLOGIES,
        placements=PLACEMENTS,
        links=LINKS,
        heterogeneity=HETEROGENEITY,
        dynamics=DYNAMICS,
        max_rounds=40,
    )
    return random.Random(FUZZ_SEED).sample(pool, N_SAMPLES)


SPECS = _sampled_specs()


def _run(engine_cls, spec, unit_clocks=False, reference=False, **sim_kwargs):
    scenario = build_scenario(spec.scenario, seed=spec.seed)
    if unit_clocks and engine_cls is not Simulator:
        # Heterogeneity components slow straggler *clocks* along with
        # their processing speed (clock_speeds defaults to
        # node_speeds); the sync-equivalence leg of the property is
        # about unit clocks, so pin them while keeping the processing
        # heterogeneity the sync engine also sees.
        sim_kwargs["clock_speeds"] = np.ones(scenario.topology.n_nodes)
    sim = engine_cls(
        scenario.topology,
        scenario.system,
        (reference_balancer if reference else make_balancer)(spec.algorithm),
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=spec.seed,
        **sim_kwargs,
    )
    result = PhysicsChecker(sim).run(max_rounds=spec.max_rounds)
    return result, np.array(scenario.system.node_loads), sim


@pytest.mark.parametrize("spec", SPECS, ids=[s.label() for s in SPECS])
def test_three_engines_agree_under_unit_clocks(spec):
    rounds_res, rounds_loads, _ = _run(Simulator, spec)
    ev_res, ev_loads, ev_sim = _run(HeapEventSimulator, spec, unit_clocks=True,
                                    reference=True)
    fast_res, fast_loads, fast_sim = _run(EventSimulator, spec, unit_clocks=True)

    rounds_records = [asdict(r) for r in rounds_res.records]
    ev_records = [asdict(r) for r in ev_res.records]
    fast_records = [asdict(r) for r in fast_res.records]
    # Unit clocks: the async engines degenerate to the sync protocol.
    assert rounds_records == ev_records
    # And columnar ≡ heap events, down to the RNG stream.
    assert ev_records == fast_records
    assert (ev_loads == fast_loads).all()
    assert (rounds_loads == ev_loads).all()
    assert ev_sim.events_processed == fast_sim.events_processed
    assert ev_sim.rng.bit_generator.state == fast_sim.rng.bit_generator.state


@pytest.mark.parametrize("spec", SPECS, ids=[s.label() for s in SPECS])
def test_event_engines_agree_under_jittered_clocks(spec):
    # Off the degenerate configuration the sync engine no longer
    # applies, but the columnar driver must still track the heap exactly.
    kwargs = {"wake_jitter": 0.3, "transfer_latency": 0.4}
    ev_res, ev_loads, ev_sim = _run(HeapEventSimulator, spec, reference=True,
                                    **kwargs)
    fast_res, fast_loads, fast_sim = _run(EventSimulator, spec, **kwargs)
    assert [asdict(r) for r in ev_res.records] == [
        asdict(r) for r in fast_res.records
    ]
    assert (ev_loads == fast_loads).all()
    assert ev_sim.events_processed == fast_sim.events_processed
    assert ev_sim.rng.bit_generator.state == fast_sim.rng.bit_generator.state
