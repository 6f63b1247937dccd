"""The replicate-batched ≡ solo synchronous-engine correctness anchor.

:class:`~repro.sim.BatchSimulator` runs S seed replicates of one
scenario as a single vectorised simulation. Its contract is the same
one every fast path in this repo carries: pure evaluation-order
optimisation, never a decision. Replicate *i* of a batch must therefore
reproduce a solo :class:`~repro.sim.Simulator` run of seed *i*
exactly — identical per-round records (every float), identical
convergence round, identical final load vector, and an identical
*terminal RNG state* (the batch consumed exactly the draws the solo run
would have). Covered here across the differential scenario matrix,
under per-replicate fallback (friction jitter), under probes (decision
counters included), on long steady-state horizons (the frozen-lane
caches), and over fuzzed composed-grammar scenarios.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.balancer import ParticlePlaneBalancer
from repro.exceptions import ConfigurationError
from repro.runner.registry import make_balancer
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
        # Skipped and frozen rounds too, not only the stepped ones.
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

    def test_replicates_drop_out_independently(self):
        # Different seeds converge at different rounds; the active mask
        # must retire each lane exactly when its solo run would stop.
        pairs = _batch_vs_solo("mesh-hotspot", "pplb", seeds=list(range(6)),
                               rounds=200)
        converged = {p[0][0].converged_round for p in pairs}
        assert len(converged) > 1, "seeds converged in lock-step; weak case"
        for batch, solo in pairs:
            _assert_identical(batch, solo)

    def test_jittered_config_falls_back_per_replicate(self):
        # friction_jitter != 0 draws RNG per evaluated candidate, so the
        # batch cannot precompute — those lanes ride along unhinted and
        # must still match their solo runs bit for bit.
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb",
            algorithm_kwargs={"friction_jitter": 0.05},
        ):
            _assert_identical(batch, solo)

    def test_long_steady_horizon_with_frozen_lanes(self):
        # A fixed horizon far past convergence: lanes freeze (cached
        # screen + cached summary) and every later round must replay
        # the exact skipped state the solo run keeps recomputing.
        no_exit = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb", seeds=[0, 1, 2], rounds=300,
            criteria=no_exit,
        ):
            _assert_identical(batch, solo)

    def test_frozen_horizon_skips_balancer_steps(self, monkeypatch):
        # The batch saves work only by skipping provably no-op steps, and
        # the equivalence checks above stay green if skipping stops — so
        # count the balancer steps on both sides of the same horizon.
        calls = []
        step = ParticlePlaneBalancer.step

        def counting_step(self, ctx):
            calls.append(ctx.round_index)
            return step(self, ctx)

        monkeypatch.setattr(ParticlePlaneBalancer, "step", counting_step)
        no_exit = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)
        seeds, rounds = [0, 1, 2], 300
        sims = []
        for seed in seeds:
            topology = sims[0].topology if sims else None
            sims.append(_build_sim("mesh-hotspot", "pplb", seed,
                                   topology=topology, criteria=no_exit))
        BatchSimulator(sims).run(max_rounds=rounds)
        batched = len(calls)
        calls.clear()
        for seed in seeds:
            _build_sim("mesh-hotspot", "pplb", seed,
                       criteria=no_exit).run(max_rounds=rounds)
        assert len(calls) == len(seeds) * rounds
        assert batched < len(calls)

    def test_probed_lanes_keep_identical_decision_counters(self):
        # Probes observe, never steer — in a batch too. Records and the
        # structured decision counters must match the solo run; the
        # batch.* counters are additive batch-only telemetry.
        for batch, solo in _batch_vs_solo(
            "mesh-hotspot", "pplb", seeds=[0, 1], probe="counters",
        ):
            _assert_identical(batch, solo)
            b_counters = dict(batch[0].telemetry["counters"])
            replicates = b_counters.pop("batch.replicates")
            fill = b_counters.pop("batch.fill_ratio")
            fallbacks = b_counters.pop("batch.fallbacks")
            assert replicates == 2
            assert 0.0 < fill <= 1.0
            assert fallbacks == 0
            assert b_counters == solo[0].telemetry["counters"]

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
    a balancer whose lanes skip idle steps and one whose lanes never do
    (every batch in this file is physics-checked by `_batch_vs_solo`)."""

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
