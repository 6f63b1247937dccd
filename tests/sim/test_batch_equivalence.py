"""The replicate-batched ≡ solo correctness anchor.

:class:`~repro.sim.BatchSimulator` runs S seed replicates of one
scenario on one shared topology build, each lane the solo engine.
Replicate *i* of a batch must therefore reproduce a solo run of seed *i*
exactly — identical per-round records (every float), identical
convergence round, identical final load vector, and an identical
*terminal RNG state*. Covered here across the differential scenario
matrix on the synchronous engine, with friction jitter, under probes
(the whole telemetry block), on long steady-state horizons, over fuzzed
composed-grammar scenarios, and through ``execute_batch`` on all three
engines.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runner import RunSpec
from repro.runner.registry import make_balancer
from repro.runner.worker import execute_batch, execute_spec
from repro.sim import BatchSimulator, Simulator
from repro.sim.engine import ConvergenceCriteria
from repro.workloads import build_scenario
from tests.physics_checker import PhysicsChecker

#: ≥6 scenarios × 4 algorithms as demanded by the acceptance criteria:
#: faulted links (up-mask screening), heterogeneous speeds (the
#: effective-surface inv_s path), churn (dynamic floors), multi-valley
#: surfaces and the two standard hotspots.
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
SEEDS = [0, 1, 2, 3]


def _build_sim(scenario_name, algorithm, seed, size=SIZE, topology=None,
               criteria=None, probe="null", algorithm_kwargs=None):
    scenario = build_scenario(scenario_name, seed=seed, topology=topology,
                              **size)
    extra = {} if criteria is None else {"criteria": criteria}
    sim = Simulator(
        scenario.topology,
        scenario.system,
        make_balancer(algorithm, **(algorithm_kwargs or {})),
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=seed,
        probe=probe,
        **extra,
    )
    return sim


def _batch_vs_solo(scenario_name, algorithm, seeds=SEEDS, rounds=60,
                   size=SIZE, criteria=None, probe="null",
                   algorithm_kwargs=None):
    """Run seeds batched and solo; return [(batch, solo), ...] where
    each element is an (result, final_loads, rng_state) triple. Every
    round of every batch lane passes the physics checker."""
    sims = []
    topology = None
    for seed in seeds:
        sim = _build_sim(scenario_name, algorithm, seed, size=size,
                         topology=topology, criteria=criteria, probe=probe,
                         algorithm_kwargs=algorithm_kwargs)
        if topology is None:
            topology = sim.topology
        sims.append(sim)
    checkers = [PhysicsChecker(sim) for sim in sims]
    batch_results = BatchSimulator(sims).run(max_rounds=rounds)
    for checker, result in zip(checkers, batch_results):
        checker.finish(result)
        # Every round of every lane.
        assert checker.rounds_checked == result.n_rounds
    pairs = []
    for seed, sim, batch_result in zip(seeds, sims, batch_results):
        solo = _build_sim(scenario_name, algorithm, seed, size=size,
                          criteria=criteria, probe=probe,
                          algorithm_kwargs=algorithm_kwargs)
        solo_result = solo.run(max_rounds=rounds)
        pairs.append((
            (batch_result, np.array(sim.system.node_loads),
             sim.rng.bit_generator.state),
            (solo_result, np.array(solo.system.node_loads),
             solo.rng.bit_generator.state),
        ))
    return pairs


def _untimed(telemetry):
    """*telemetry* without the measured phase seconds."""
    out = dict(telemetry)
    out["phases"] = {name: phase["calls"]
                     for name, phase in telemetry["phases"].items()}
    return out


def _assert_identical(batch, solo):
    (b_result, b_loads, b_rng), (s_result, s_loads, s_rng) = batch, solo
    assert [asdict(r) for r in b_result.records] == [
        asdict(r) for r in s_result.records
    ]
    assert b_result.converged_round == s_result.converged_round
    assert b_result.initial_summary == s_result.initial_summary
    assert b_result.final_summary == s_result.final_summary
    assert (b_loads == s_loads).all()
    assert b_rng == s_rng


class TestBatchEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batched_replicates_reproduce_solo_runs(self, scenario, algorithm):
        for batch, solo in _batch_vs_solo(scenario, algorithm):
            _assert_identical(batch, solo)

    def test_replicates_converge_independently(self):
        # Different seeds converge at different rounds; each lane must
        # stop exactly when its solo run would.
        pairs = _batch_vs_solo("mesh-hotspot", "pplb", seeds=list(range(6)),
                               rounds=200)
        converged = {p[0][0].converged_round for p in pairs}
        assert len(converged) > 1, "every seed converged at one round; weak case"
        for batch, solo in pairs:
            _assert_identical(batch, solo)

    def test_jittered_config_lanes_reproduce_solo_runs(self):
        # friction_jitter != 0 draws RNG per evaluated candidate and
        # sweeps every node; those lanes must match their solo runs bit
        # for bit too.
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb",
            algorithm_kwargs={"friction_jitter": 0.05},
        ):
            _assert_identical(batch, solo)

    def test_long_steady_horizon(self):
        # A fixed horizon far past convergence: every idle round of
        # every lane must match the solo run's.
        no_exit = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb", seeds=[0, 1, 2], rounds=300,
            criteria=no_exit,
        ):
            _assert_identical(batch, solo)

    def test_probed_lanes_keep_identical_decision_counters(self):
        # Probes observe, never steer — in a batch too. Records and the
        # whole telemetry block (counters, phase call counts) must match
        # the solo run; only the measured phase seconds differ.
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb", seeds=[0, 1], probe="counters",
        ):
            _assert_identical(batch, solo)
            assert _untimed(batch[0].telemetry) == _untimed(solo[0].telemetry)

    def test_singleton_batch(self):
        for batch, solo in _batch_vs_solo("torus-hotspot", "pplb", seeds=[7]):
            _assert_identical(batch, solo)

    def test_rejects_unshared_topology(self):
        a = _build_sim("mesh-hotspot", "pplb", 0)
        b = _build_sim("mesh-hotspot", "pplb", 1)  # its own topology
        with pytest.raises(ConfigurationError):
            BatchSimulator([a, b])

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            BatchSimulator([])


class TestBatchPhysics:
    """Three-replicate batches over a static and a churning surface, for
    PPLB and a baseline (every batch in this file is physics-checked by
    `_batch_vs_solo`)."""

    @pytest.mark.parametrize("scenario", ["mesh-hotspot", "diurnal"])
    @pytest.mark.parametrize("algorithm", ["pplb", "diffusion"])
    def test_checked_lanes_reproduce_solo_runs(self, scenario, algorithm):
        for batch, solo in _batch_vs_solo(scenario, algorithm, seeds=[0, 1, 2],
                                          rounds=120):
            _assert_identical(batch, solo)


class TestComposedScenarioFuzz:
    """Seeded fuzz over the composition grammar: random component
    stacks, each batch checked replicate-by-replicate against solo."""

    TOPOLOGIES = ["mesh:6x6", "torus:6x6", "hypercube:5", "ring:30"]
    PLACEMENTS = ["hotspot:n_tasks=150", "uniform:n_tasks=150",
                  "clustered:n_tasks=150", "two-valleys:n_tasks=150"]
    LINKS = [None, "faulty:fault=0.05", "jittered"]
    HETEROGENEITY = [None, "stragglers:frac=0.2"]
    DYNAMICS = [None, "churn:rate=2.0,completion_prob=0.02",
                "bursty:rate=4.0,completion_prob=0.05"]

    def test_fuzzed_compositions(self):
        rng = np.random.default_rng(20260807)
        for trial in range(6):
            parts = [
                str(rng.choice(self.TOPOLOGIES)),
                str(rng.choice(self.PLACEMENTS)),
            ]
            for axis in (self.LINKS, self.HETEROGENEITY, self.DYNAMICS):
                choice = axis[int(rng.integers(len(axis)))]
                if choice is not None:
                    parts.append(choice)
            scenario = "+".join(parts)
            algorithm = str(rng.choice(["pplb", "pplb-greedy", "diffusion"]))
            seeds = [int(s) for s in rng.integers(0, 1000, size=3)]
            for batch, solo in _batch_vs_solo(
                scenario, algorithm, seeds=seeds, rounds=50, size={},
            ):
                _assert_identical(batch, solo)


def _payload(result):
    """*result*'s cache payload without its measured fields."""
    payload = result.to_dict()
    del payload["wall_time_s"]
    if payload.get("telemetry") is not None:
        payload["telemetry"] = _untimed(payload["telemetry"])
    return payload


class TestEveryEngineBatches:
    """``execute_batch`` on each engine, probed or not: every lane's
    payload equals its solo ``execute_spec`` payload."""

    @pytest.mark.parametrize("probe", ["null", "counters"])
    @pytest.mark.parametrize("engine, algorithm, scenario", [
        ("rounds", "pplb", "mesh-faulty"),
        ("events", "pplb", "straggler"),
        ("events", "diffusion", "bursty-arrivals"),
        ("fluid", "fluid-diffusion", "mesh-hotspot"),
    ])
    def test_lanes_match_solo_execute_spec(self, engine, algorithm, scenario,
                                           probe):
        specs = [
            RunSpec(scenario=scenario, algorithm=algorithm, seed=seed,
                    max_rounds=40, scenario_kwargs=dict(SIZE), engine=engine,
                    probe=probe)
            for seed in SEEDS
        ]
        batched = execute_batch(specs)
        assert len(batched) == len(specs)
        for spec, lane in zip(specs, batched):
            assert _payload(lane) == _payload(execute_spec(spec))

    def test_specs_beyond_seed_are_rejected(self):
        # The lanes share the first spec's topology, so a second spec on
        # another machine would silently run on the first one's mesh.
        small = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=0,
                        max_rounds=40, scenario_kwargs={"side": 5})
        large = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=1,
                        max_rounds=40, scenario_kwargs={"side": 6})
        with pytest.raises(ConfigurationError, match="scenario_kwargs"):
            execute_batch([small, large])
