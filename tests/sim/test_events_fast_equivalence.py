"""The heap ≡ columnar event-driver bit-exactness anchor.

:class:`~repro.sim.EventFastSimulator` replays the scalar event
engine's schedule through batched wake waves and columnar event
buffers. Each pair runs the scalar event engine with PPLB pinned to the
reference Phase-B sweep (:class:`~tests.conftest.ReferencePPLB`)
against :class:`~repro.sim.EventFastSimulator` (what the ``events``
engine builds) with plain PPLB, which takes the screened
sweep, so both evaluation-order changes are checked at once. Neither
is allowed to show up in the results: same seed ⇒ identical per-round
records (every float), identical final load vectors, identical
``events_processed`` *and* identical terminal RNG state — the strongest
available witness that the screen skipped only work that draws no
randomness and changes no state. Unlike the sync ≡ async anchor, this property must hold on
*every* clock model (jitter, latency, stragglers, churn), because
the columnar driver is a reimplementation of the same engine, not a degenerate
configuration of it.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.balancer import ParticlePlaneBalancer
from repro.runner.registry import make_balancer
from repro.sim import EventFastSimulator, EventSimulator, Simulator
from repro.workloads import build_scenario
from tests.conftest import reference_balancer

#: ≥6 scenarios covering churn (``bursty-arrivals``), heterogeneous
#: clocks (``straggler``), link failure (``fault-storm``) and plain
#: static surfaces, × the 4 algorithm families (stateful PPLB,
#: memoryless diffusion, stochastic stealing, gradient fields).
SCENARIOS = [
    "mesh-hotspot",
    "torus-hotspot",
    "mesh-two-valleys",
    "bursty-arrivals",
    "straggler",
    "fault-storm",
]
ALGORITHMS = ["pplb", "diffusion", "work-stealing", "gradient-model"]
SIZE = {"side": 6, "n_tasks": 180}

#: asynchronous clock/wire models; each scenario × algorithm cell runs
#: one of these (rotating) so the grid covers unit clocks, jittered
#: clocks, latency-delayed transfers and their combination without
#: quadrupling the suite.
CLOCK_VARIANTS = [
    {},
    {"wake_jitter": 0.3},
    {"transfer_latency": 0.4},
    {"wake_jitter": 0.2, "transfer_latency": 0.4},
]


def _run(engine_cls, scenario_name, algorithm, seed, balancer=None, **sim_kwargs):
    scenario = build_scenario(scenario_name, seed=seed, **SIZE)
    sim = engine_cls(
        scenario.topology,
        scenario.system,
        balancer if balancer is not None else make_balancer(algorithm),
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=seed,
        **sim_kwargs,
    )
    result = sim.run(max_rounds=50)
    return result, np.array(scenario.system.node_loads), sim


def _assert_bit_identical(scenario, algorithm, seed=7, **sim_kwargs):
    s_res, s_loads, s_sim = _run(
        EventSimulator, scenario, algorithm, seed,
        balancer=reference_balancer(algorithm), **sim_kwargs
    )
    f_res, f_loads, f_sim = _run(
        EventFastSimulator, scenario, algorithm, seed, **sim_kwargs
    )
    # Identical per-round records — every field, every float.
    assert [asdict(r) for r in s_res.records] == [asdict(r) for r in f_res.records]
    assert s_res.converged_round == f_res.converged_round
    assert s_res.final_summary == f_res.final_summary
    # Identical final placement.
    assert (s_loads == f_loads).all()
    # Identical event count and terminal RNG state: the fast path
    # consumed exactly the same randomness in exactly the same order.
    assert s_sim.events_processed == f_sim.events_processed
    assert s_sim.rng.bit_generator.state == f_sim.rng.bit_generator.state


class TestEventsFastEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_across_scenarios_and_algorithms(self, scenario, algorithm):
        # Rotate the clock variant so the full grid covers every
        # asynchrony model while each cell stays one paired run.
        variant = CLOCK_VARIANTS[
            (SCENARIOS.index(scenario) + ALGORITHMS.index(algorithm))
            % len(CLOCK_VARIANTS)
        ]
        _assert_bit_identical(scenario, algorithm, **variant)

    @pytest.mark.parametrize(
        "variant", CLOCK_VARIANTS, ids=["unit", "jitter", "latency", "jitter+latency"]
    )
    def test_every_clock_model_on_the_anchor_scenario(self, variant):
        _assert_bit_identical("torus-hotspot", "pplb", **variant)

    def test_equivalence_holds_across_seeds(self):
        for seed in (0, 1, 2):
            _assert_bit_identical(
                "mesh-hotspot", "pplb", seed=seed, wake_jitter=0.25
            )

    def test_matches_sync_engine_under_unit_clocks(self):
        # Transitivity anchor: columnar ≡ heap ≡ synchronous in the
        # degenerate configuration, so the fast engine inherits the
        # sync ≡ async certificate too.
        sync_res, sync_loads, _ = _run(
            Simulator, "mesh-hotspot", "pplb", seed=11,
            balancer=reference_balancer("pplb"),
        )
        fast_res, fast_loads, _ = _run(
            EventFastSimulator, "mesh-hotspot", "pplb", seed=11
        )
        assert [asdict(r) for r in sync_res.records] == [
            asdict(r) for r in fast_res.records
        ]
        assert (sync_loads == fast_loads).all()


class TestScalarFallback:
    """Friction jitter draws RNG per *evaluated* candidate — work the
    Phase-B screen elides — so jittered-friction configs take the
    reference Phase-B sweep (and stay bit-exact through it)."""

    def test_jittered_friction_stays_bit_exact(self):
        balancer_kwargs = {"friction_jitter": 0.05}
        s_res, s_loads, s_sim = _run(
            EventSimulator, "torus-hotspot", "pplb", 7,
            balancer=make_balancer("pplb", **balancer_kwargs),
        )
        f_res, f_loads, f_sim = _run(
            EventFastSimulator, "torus-hotspot", "pplb", 7,
            balancer=make_balancer("pplb", **balancer_kwargs),
        )
        assert [asdict(r) for r in s_res.records] == [
            asdict(r) for r in f_res.records
        ]
        assert (s_loads == f_loads).all()
        assert s_sim.rng.bit_generator.state == f_sim.rng.bit_generator.state

    def test_fallback_is_actually_taken(self, monkeypatch):
        # Prove the gate routes around the Phase-B screen rather than the
        # screened sweep happening to agree: poison it and check the
        # jittered run never touches it while the unjittered run does.
        def _boom(self, s):
            raise AssertionError("screened phase used despite friction jitter")

        monkeypatch.setattr(ParticlePlaneBalancer, "_phase_b_fast", _boom)
        result, _, _ = _run(
            EventFastSimulator, "torus-hotspot", "pplb", 7,
            balancer=make_balancer("pplb", friction_jitter=0.05),
        )
        assert result.records  # ran to completion on the reference sweep
        with pytest.raises(AssertionError, match="screened phase"):
            _run(EventFastSimulator, "torus-hotspot", "pplb", 7)
