"""The scalar ≡ vectorized correctness anchor (ISSUE 3's key property).

The ``rounds-fast`` engine (:class:`~repro.sim.FastSimulator`) must
reproduce the scalar synchronous :class:`~repro.sim.Simulator`
*exactly*: same seed ⇒ identical per-round records (every float),
identical final load vectors, identical convergence round — across
hotspot, multi-valley, faulted-link, heterogeneous-speed and churn
scenarios, for PPLB (stochastic and greedy) and the baselines. This is
what certifies that the fast path is a pure evaluation-order
optimisation: its batch screen skips exactly the work the scalar sweep
would have done with no effect and no RNG consumption, never a
decision.
"""

import dataclasses
import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.runner.registry import make_balancer
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_spec
from repro.sim import FastSimulator, Simulator
from repro.workloads import build_scenario

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


def _run(engine_cls, scenario_name, algorithm, seed, rounds=70, size=SIZE,
         balancer=None):
    scenario = build_scenario(scenario_name, seed=seed, **size)
    sim = engine_cls(
        scenario.topology,
        scenario.system,
        balancer if balancer is not None else make_balancer(algorithm),
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=seed,
    )
    result = sim.run(max_rounds=rounds)
    return result, np.array(scenario.system.node_loads)


def _assert_identical(sync_result, sync_loads, fast_result, fast_loads):
    assert [asdict(r) for r in sync_result.records] == [
        asdict(r) for r in fast_result.records
    ]
    assert sync_result.converged_round == fast_result.converged_round
    assert sync_result.initial_summary == fast_result.initial_summary
    assert sync_result.final_summary == fast_result.final_summary
    assert (sync_loads == fast_loads).all()


class TestFastEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fast_engine_reproduces_scalar_trajectory(self, scenario, algorithm):
        sync_result, sync_loads = _run(Simulator, scenario, algorithm, seed=11)
        fast_result, fast_loads = _run(FastSimulator, scenario, algorithm, seed=11)
        _assert_identical(sync_result, sync_loads, fast_result, fast_loads)

    def test_equivalence_holds_across_seeds(self):
        # The property is seed-independent, not a lucky draw.
        for seed in (0, 1, 2):
            s, sl = _run(Simulator, "mesh-hotspot", "pplb", seed=seed)
            f, fl = _run(FastSimulator, "mesh-hotspot", "pplb", seed=seed)
            _assert_identical(s, sl, f, fl)

    def test_equivalence_at_large_n(self):
        # The screen/heap machinery sees real traffic only at scale;
        # anchor one 1024-node trajectory end to end.
        s, sl = _run(Simulator, "torus-32x32", "pplb", seed=5, rounds=40,
                     size={"n_tasks": 2048})
        f, fl = _run(FastSimulator, "torus-32x32", "pplb", seed=5, rounds=40,
                     size={"n_tasks": 2048})
        _assert_identical(s, sl, f, fl)

    def test_balancer_stats_match(self):
        # Not just the records: the balancer's own journey accounting
        # (initiated / settled / hops / heat) is identical too.
        stats = []
        for engine_cls in (Simulator, FastSimulator):
            scenario = build_scenario("mesh-hotspot", seed=7, **SIZE)
            balancer = ParticlePlaneBalancer(PPLBConfig())
            sim = engine_cls(scenario.topology, scenario.system, balancer,
                             links=scenario.links, seed=7)
            sim.run(max_rounds=70)
            stats.append(dict(balancer.stats))
        assert stats[0] == stats[1]

    def test_jittered_config_falls_back_and_still_matches(self):
        # Friction jitter draws RNG per evaluated candidate, which the
        # screen cannot reproduce — the fast engine must detect this and
        # take the scalar path, keeping equivalence rather than speed.
        cfg = PPLBConfig(friction_jitter=0.3)
        s, sl = _run(Simulator, "mesh-hotspot", "pplb", seed=3,
                     balancer=ParticlePlaneBalancer(cfg))
        f, fl = _run(FastSimulator, "mesh-hotspot", "pplb", seed=3,
                     balancer=ParticlePlaneBalancer(cfg))
        _assert_identical(s, sl, f, fl)

    @pytest.mark.parametrize("overrides", [
        {"motion_rule": "energy-only"},
        {"arbiter_score": "raw"},
        {"max_departures_per_node": 1},
        {"max_hops": 2},
        {"candidates_per_node": 1},
        {"kappa": 0.5},
    ])
    def test_config_variants_match(self, overrides):
        cfg = PPLBConfig(**overrides)
        s, sl = _run(Simulator, "mesh-two-valleys", "pplb", seed=13,
                     balancer=ParticlePlaneBalancer(cfg))
        f, fl = _run(FastSimulator, "mesh-two-valleys", "pplb", seed=13,
                     balancer=ParticlePlaneBalancer(cfg))
        _assert_identical(s, sl, f, fl)

    @pytest.mark.parametrize("sim_kwargs", [
        {"transfer_latency": 2},
        {"link_capacity": 2},
    ])
    def test_engine_kwargs_match(self, sim_kwargs):
        # Wire transit (tasks on no node) and multi-task links flow
        # through the task index and the reservation mask respectively.
        results = []
        for engine_cls in (Simulator, FastSimulator):
            scenario = build_scenario("mesh-hotspot", seed=9, **SIZE)
            sim = engine_cls(scenario.topology, scenario.system,
                             make_balancer("pplb"), links=scenario.links,
                             seed=9, **sim_kwargs)
            results.append((sim.run(max_rounds=70),
                            np.array(scenario.system.node_loads)))
        (s, sl), (f, fl) = results
        _assert_identical(s, sl, f, fl)

    def test_fast_context_flag_is_set(self):
        # Sanity: the dispatch actually reaches the balancer (the
        # equivalence above would hold vacuously if fast were never on).
        seen = []

        class Probe(ParticlePlaneBalancer):
            def step(self, ctx):
                seen.append(ctx.fast)
                return super().step(ctx)

        scenario = build_scenario("mesh-hotspot", seed=0, **SIZE)
        sim = FastSimulator(scenario.topology, scenario.system, Probe(),
                            links=scenario.links, seed=0)
        sim.run(max_rounds=3)
        assert seen and all(seen)


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
                       seed=2, max_rounds=40, engine="rounds-fast")
        fast = execute_spec(spec)
        assert len(visits) > 500
        assert visits.count(False) <= 0.01 * len(visits)
        monkeypatch.undo()
        scalar = execute_spec(dataclasses.replace(spec, engine="rounds"))
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


class TestHubDigests:
    """High-degree trajectories stay byte-identical on every engine."""

    @pytest.mark.parametrize("engine",
                             ["rounds", "rounds-fast", "events", "events-fast"])
    @pytest.mark.parametrize("scenario,config", list(HUB_DIGESTS))
    def test_hub_result_digest_is_frozen(self, scenario, config, engine):
        spec = RunSpec(scenario=scenario, algorithm="pplb", seed=0,
                       max_rounds=60, engine=engine,
                       algorithm_kwargs=json.loads(config))
        payload = execute_spec(spec).to_dict()
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
