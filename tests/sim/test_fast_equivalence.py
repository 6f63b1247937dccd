"""The screened ≡ reference Phase-B correctness anchor.

PPLB picks its own Phase-B sweep on every engine: the screened sweep
whenever the screen is sound, the reference sweep over every node
otherwise. The screened sweep must reproduce the reference one
*exactly*: same seed ⇒ identical per-round records (every float),
identical final load vectors, identical convergence round — across
hotspot, multi-valley, faulted-link, heterogeneous-speed and churn
scenarios, for PPLB (stochastic and greedy), with the baselines riding
along as a control. Each pair runs plain PPLB against
:class:`~tests.conftest.ReferencePPLB`, which is pinned to the
reference sweep. This is what certifies that the screen is a pure
evaluation-order optimisation: it skips exactly the work the reference
sweep would have done with no effect and no RNG consumption, never a
decision.
"""

import dataclasses
import functools
import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.network import builders
from repro.runner.registry import make_balancer
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_batch, execute_spec
from repro.sim import EventFastSimulator, EventSimulator, Simulator
from repro.tasks import TaskSystem
from repro.workloads import build_scenario
from tests.conftest import ReferencePPLB, make_context, reference_balancer, run_on

#: ≥4 scenarios × 4 algorithms as demanded by the acceptance criteria,
#: plus faulted links (up-mask screening), heterogeneous speeds (the
#: effective-surface inv_s path) and churn (dynamic floors).
SCENARIOS = [
    "mesh-hotspot",
    "torus-hotspot",
    "mesh-two-valleys",
    "mesh-faulty",
    "straggler",
    "bursty-arrivals",
]
ALGORITHMS = ["pplb", "pplb-greedy", "diffusion", "work-stealing"]
SIZE = {"side": 6, "n_tasks": 180}
#: the task engine classes, the heap-driven event oracle included;
#: PPLB must pick the same sweep on each
TASK_ENGINES = [Simulator, EventSimulator, EventFastSimulator]


def _run(balancer, scenario_name, seed, rounds=70, size=SIZE, **sim_kwargs):
    scenario = build_scenario(scenario_name, seed=seed, **size)
    sim = Simulator(
        scenario.topology,
        scenario.system,
        balancer,
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=seed,
        **sim_kwargs,
    )
    result = sim.run(max_rounds=rounds)
    return result, np.array(scenario.system.node_loads)


def _assert_identical(ref_result, ref_loads, result, loads):
    assert [asdict(r) for r in ref_result.records] == [
        asdict(r) for r in result.records
    ]
    assert ref_result.converged_round == result.converged_round
    assert ref_result.initial_summary == result.initial_summary
    assert ref_result.final_summary == result.final_summary
    assert (ref_loads == loads).all()


def _assert_matches_reference(scenario, algorithm="pplb", seed=11,
                              bal_kwargs=None, **run_kwargs):
    """Plain *algorithm* reproduces its reference-sweep twin."""
    bal_kwargs = bal_kwargs or {}
    _assert_identical(
        *_run(reference_balancer(algorithm, **bal_kwargs), scenario, seed,
              **run_kwargs),
        *_run(make_balancer(algorithm, **bal_kwargs), scenario, seed,
              **run_kwargs),
    )


class TestFastEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fast_engine_reproduces_scalar_trajectory(self, scenario, algorithm):
        _assert_matches_reference(scenario, algorithm)

    def test_equivalence_holds_across_seeds(self):
        # The property is seed-independent, not a lucky draw.
        for seed in (0, 1, 2):
            _assert_matches_reference("mesh-hotspot", seed=seed)

    def test_equivalence_at_large_n(self):
        # The screen/heap machinery sees real traffic only at scale;
        # anchor one 1024-node trajectory end to end.
        _assert_matches_reference("torus-32x32", seed=5, rounds=40,
                                  size={"n_tasks": 2048})

    def test_balancer_stats_match(self):
        # Not just the records: the balancer's own journey accounting
        # (initiated / settled / hops / heat) is identical too.
        stats = []
        for balancer_cls in (ReferencePPLB, ParticlePlaneBalancer):
            balancer = balancer_cls(PPLBConfig())
            _run(balancer, "mesh-hotspot", seed=7, size=SIZE)
            stats.append(dict(balancer.stats))
        assert stats[0] == stats[1]

    @pytest.mark.parametrize("overrides", [
        {"motion_rule": "energy-only"},
        {"arbiter_score": "raw"},
        {"max_departures_per_node": 1},
        {"max_hops": 2},
        {"candidates_per_node": 1},
        {"kappa": 0.5},
    ])
    def test_config_variants_match(self, overrides):
        _assert_matches_reference("mesh-two-valleys", seed=13,
                                  bal_kwargs=overrides)

    @pytest.mark.parametrize("sim_kwargs", [
        {"transfer_latency": 2},
        {"link_capacity": 2},
    ])
    def test_engine_kwargs_match(self, sim_kwargs):
        # Wire transit (tasks on no node) and multi-task links flow
        # through the task index and the reservation mask respectively.
        _assert_matches_reference("mesh-hotspot", seed=9, **sim_kwargs)


def _sweep_calls(monkeypatch, engine, reference=False, **bal_kwargs):
    """Calls of each of PPLB's Phase-B sweeps in one run on the engine
    class *engine*.

    The run builds its balancer through the runner's registry;
    *reference* builds :class:`~tests.conftest.ReferencePPLB` in place
    of PPLB.
    """
    calls = {"_phase_b_scalar": 0, "_phase_b_fast": 0}
    for name in calls:
        original = getattr(ParticlePlaneBalancer, name)

        def spy(self, s, name=name, original=original):
            calls[name] += 1
            original(self, s)

        monkeypatch.setattr(ParticlePlaneBalancer, name, spy)
    if reference:
        monkeypatch.setattr("repro.runner.worker.make_balancer",
                            reference_balancer)
    run_on(engine, RunSpec(scenario="mesh:6x6+hotspot", algorithm="pplb",
                           seed=0, max_rounds=10, algorithm_kwargs=bal_kwargs))
    return calls


class TestSweepChoice:
    """PPLB, not the engine, decides which Phase-B sweep runs."""

    pytestmark = pytest.mark.parametrize(
        "engine", TASK_ENGINES, ids=lambda cls: cls.__name__
    )

    def test_sound_screen_takes_the_screened_sweep(self, monkeypatch, engine):
        calls = _sweep_calls(monkeypatch, engine)
        assert calls["_phase_b_fast"] > 0 and calls["_phase_b_scalar"] == 0

    def test_friction_jitter_takes_the_reference_sweep(self, monkeypatch, engine):
        # Jitter draws RNG per evaluated candidate, which the screen
        # would elide: every node must be visited.
        calls = _sweep_calls(monkeypatch, engine, friction_jitter=0.05)
        assert calls["_phase_b_scalar"] > 0 and calls["_phase_b_fast"] == 0

    def test_reference_subclass_never_screens(self, monkeypatch, engine):
        # The equivalence suites compare against this class; were it to
        # screen too, they would compare the screened sweep with itself.
        calls = _sweep_calls(monkeypatch, engine, reference=True)
        assert calls["_phase_b_scalar"] > 0 and calls["_phase_b_fast"] == 0


class TestPhaseBVisitScreen:
    """Phase B's per-visit re-screen keeps the fast sweep to real work."""

    def test_fast_sweep_visits_almost_only_initiating_nodes(self, monkeypatch):
        # Every node the fast sweep reaches is re-screened at visit time,
        # so a visit that initiates nothing needs a screen pass that the
        # real friction or an in-flight candidate then refutes — rare.
        # Without the re-screen about 70% of the visits here are empty.
        visits = []
        original = ParticlePlaneBalancer._phase_b_node

        def spy(self, s, i):
            before = len(s.migrations)
            original(self, s, i)
            visits.append(len(s.migrations) > before)

        monkeypatch.setattr(ParticlePlaneBalancer, "_phase_b_node", spy)
        spec = RunSpec(scenario="mesh:32x32+clustered", algorithm="pplb",
                       seed=2, max_rounds=40)
        fast = execute_spec(spec)
        assert len(visits) > 500
        assert visits.count(False) <= 0.01 * len(visits)
        monkeypatch.undo()
        monkeypatch.setattr("repro.runner.worker.make_balancer",
                            reference_balancer)
        scalar = execute_spec(spec)
        assert [asdict(r) for r in fast.records] == [
            asdict(r) for r in scalar.records
        ]

    def test_an_arrival_requeues_its_destination(self):
        # Path 0 - 1 - 2. Node 1 fails the screen (slope 0.5 to node 2
        # at its floor), until node 0 sends it a task: then its surface
        # reads 4 and the slope 1.5 clears µs = 1.
        topo = builders.mesh(1, 3)
        orders = []
        for cls in (ReferencePPLB, ParticlePlaneBalancer):
            system = TaskSystem(topo)
            system.add_tasks([1.0] * 13 + [0.5], [0] * 10 + [1] * 3 + [2])
            orders.append(cls().step(make_context(topo, system)))
        assert [(m.src, m.dst) for m in orders[0]] == [(0, 1), (1, 2)]
        assert orders[1] == orders[0]

    @pytest.mark.parametrize("seed", [2, 3])
    def test_a_departure_requeues_the_source_neighbors(self, monkeypatch, seed):
        # Power-law loads on a 24x24 mesh: here some neighbors of a
        # node that sheds load clear the rule only once its surface has
        # fallen, so the sweep must reach them through the re-queue.
        spec = RunSpec(scenario="mesh:24x24+power-law", algorithm="pplb",
                       seed=seed, max_rounds=40)
        fast = execute_spec(spec)
        monkeypatch.setattr("repro.runner.worker.make_balancer",
                            reference_balancer)
        scalar = execute_spec(spec)
        assert [asdict(r) for r in fast.records] == [
            asdict(r) for r in scalar.records
        ]


#: Result digests of hub topologies (maximum degree 39–63), frozen from
#: the release that still ran separate NumPy decision bodies above
#: degree 32. Every engine must reproduce them: the plain-list bodies
#: perform the same IEEE operations, in the same order and with the
#: same RNG draws, at every node degree.
HUB_DIGESTS = {
    ("star:64+hotspot", "{}"):
        "6db1c849780225917b19964a7ac30ad7e3e8d40da1c10f6b90df8d077082141a",
    ("star:64+hotspot", '{"arbiter_score": "raw"}'):
        "6db1c849780225917b19964a7ac30ad7e3e8d40da1c10f6b90df8d077082141a",
    ("star:64+hotspot", '{"motion_rule": "energy-only"}'):
        "b8caf84f90d7afec5f2a4ebdc3152247f1cb7f7afaa360ca919bffa633baa732",
    ("complete:40+clustered+faulty", "{}"):
        "d64f168792c2a630422769bb072d126739ea87b4859e3d9a3af9296c167dd399",
    ("complete:40+clustered+faulty", '{"arbiter_score": "raw"}'):
        "60a6fcce9a1ace114c02d5fd016a8f8c28a1028a1f32faceaa833af4e92096ac",
    ("complete:40+clustered+faulty", '{"motion_rule": "energy-only"}'):
        "f59613f6d579c6bad9b864011737be925d5a0641f2f281a65ca4ef91460f0d97",
    ("random:n_nodes=80,avg_degree=40+power-law+churn", "{}"):
        "08eaecb2c236ea320c27a2405aec8b289216ab9921c9f9e076a76321e7ebc56e",
    ("random:n_nodes=80,avg_degree=40+power-law+churn",
     '{"arbiter_score": "raw"}'):
        "08eaecb2c236ea320c27a2405aec8b289216ab9921c9f9e076a76321e7ebc56e",
    ("random:n_nodes=80,avg_degree=40+power-law+churn",
     '{"motion_rule": "energy-only"}'):
        "14f44d2b50193a117ea36857619218e69168b0f86e487f5629d4cc10a4f11c90",
}


def _first_lane(spec):
    """*spec* run as the first lane of a two-replicate batch."""
    return execute_batch([spec, dataclasses.replace(spec, seed=spec.seed + 1)])[0]


#: every way a hub spec runs: (engine name, runner). Both task engines
#: through the runner, the rounds engine replicate-batched, and the
#: heap-driven event oracle by class (no engine name builds it).
HUB_RUNS = {
    "rounds": ("rounds", execute_spec),
    "rounds-batched": ("rounds", _first_lane),
    "events": ("events", execute_spec),
    "EventSimulator": ("events", functools.partial(run_on, EventSimulator)),
}


class TestHubDigests:
    """High-degree trajectories stay byte-identical on every engine."""

    @pytest.mark.parametrize("run", list(HUB_RUNS))
    @pytest.mark.parametrize("scenario,config", list(HUB_DIGESTS))
    def test_hub_result_digest_is_frozen(self, scenario, config, run):
        engine, execute = HUB_RUNS[run]
        spec = RunSpec(scenario=scenario, algorithm="pplb", seed=0,
                       max_rounds=60, engine=engine,
                       algorithm_kwargs=json.loads(config))
        payload = execute(spec).to_dict()
        del payload["wall_time_s"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert digest == HUB_DIGESTS[scenario, config]

    @pytest.mark.parametrize("scenario", sorted({s for s, _ in HUB_DIGESTS}))
    def test_hub_scenarios_reach_high_degree(self, scenario):
        # The digests only pin the high-degree case if some node has
        # more than 32 links (where the array bodies used to take over).
        assert build_scenario(scenario, seed=0).topology.degree.max() > 32
