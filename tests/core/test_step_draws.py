"""PPLB's step shortcuts against the plain per-call mechanisms.

A step takes every uniform draw from one block, prices uniform friction
once, asks the arbiter's trial rule directly and reads an incrementally
kept candidate floor. :class:`~tests.conftest.ReferencePPLB` does none
of that: one ``arbiter.choose``/``rng.random()`` call per draw, one
friction call per evaluation, a floor recomputed from scratch. Run side
by side, the two must give the same orders *and* leave the generator in
the same state after every single step — including a step whose draws
cross block refills and a step that raises halfway.
"""

import numpy as np
import pytest

import repro.core.balancer as balancer_mod
from repro.core import ParticlePlaneBalancer, PPLBConfig, StochasticArbiter
from repro.sim import BatchSimulator, Simulator
from repro.workloads import build_scenario
from tests.conftest import ReferencePPLB, make_context

SIZE = {"side": 6, "n_tasks": 180}

CONFIGS = {
    "default": {},
    "energy-only": {"motion_rule": "energy-only"},
    "friction-jittered": {"friction_jitter": 0.1},
}


def _sim(balancer, scenario, seed, topology=None):
    sc = build_scenario(scenario, seed=seed, topology=topology, **SIZE)
    return Simulator(sc.topology, sc.system, balancer, links=sc.links,
                     dynamic=sc.dynamic, node_speeds=sc.node_speeds, seed=seed)


def _log_steps(balancer):
    """Record ``(round, orders, RNG state before, RNG state after)`` per
    step."""
    log = []
    step = balancer.step

    def logged(ctx):
        before = ctx.rng.bit_generator.state
        orders = step(ctx)
        log.append((ctx.round_index, list(orders), before,
                    ctx.rng.bit_generator.state))
        return orders

    balancer.step = logged
    return log


def _lockstep(config, scenario="mesh-hotspot", seed=4, rounds=60):
    logs = []
    for cls in (ReferencePPLB, ParticlePlaneBalancer):
        balancer = cls(PPLBConfig(**config))
        log = _log_steps(balancer)
        sim = _sim(balancer, scenario, seed)
        result = sim.run(max_rounds=rounds)
        logs.append((log, result, sim.rng.bit_generator.state,
                     np.array(sim.system.node_loads)))
    return logs


def _assert_lockstep(ref, fast):
    ref_log, ref_result, ref_state, ref_loads = ref
    log, result, state, loads = fast
    assert len(log) == len(ref_log) > 0
    for want, got in zip(ref_log, log):
        assert got == want, f"round {want[0]}"
    assert result.records == ref_result.records
    assert state == ref_state
    assert (loads == ref_loads).all()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_step_matches_the_per_call_oracle(name):
    ref, fast = _lockstep(CONFIGS[name])
    # The stream moved: the comparison covers real draws.
    assert ref[0][-1][3] != ref[0][0][2]
    _assert_lockstep(ref, fast)


@pytest.mark.parametrize("name", ["default", "friction-jittered"])
def test_draws_across_block_refills(monkeypatch, name):
    # A three-draw block refills inside nearly every choice of m > 3 and
    # between most of the others.
    monkeypatch.setattr(balancer_mod, "_DRAW_BLOCK", 3)
    _assert_lockstep(*_lockstep(CONFIGS[name]))


def test_batch_lane_matches_the_solo_oracle():
    # A replicate-batched lane runs the solo engine on the shared
    # topology: every step, its orders and its draws match the oracle's.
    seeds = (2, 3)
    sims, logs = [], []
    for seed in seeds:
        balancer = ParticlePlaneBalancer()
        logs.append(_log_steps(balancer))
        topology = sims[0].topology if sims else None
        sims.append(_sim(balancer, "mesh-two-valleys", seed, topology))
    results = BatchSimulator(sims).run(max_rounds=80)
    oracle = ReferencePPLB()
    ref_log = _log_steps(oracle)
    ref_sim = _sim(oracle, "mesh-two-valleys", seeds[0])
    ref_result = ref_sim.run(max_rounds=80)

    assert logs[0] == ref_log
    assert results[0].records == ref_result.records
    assert sims[0].rng.bit_generator.state == ref_sim.rng.bit_generator.state


def test_a_step_that_raises_still_rewinds_the_rng(monkeypatch):
    # Count what the step's choices consume, then fail in Phase B as it
    # reaches its second node: the generator must stand exactly that
    # many draws on, not at the end of the block drawn ahead.
    consumed = []
    pick = StochasticArbiter._pick

    def counting_pick(self, vals, one_minus_b, draws, offset):
        consumed.append(len(vals))
        return pick(self, vals, one_minus_b, draws, offset)

    visits = []
    node = ParticlePlaneBalancer._phase_b_node

    def failing_node(self, s, i):
        visits.append(i)
        if len(visits) == 2:
            raise RuntimeError("boom")
        node(self, s, i)

    sc = build_scenario("mesh-two-valleys", seed=1, **SIZE)
    balancer = ParticlePlaneBalancer()
    ctx = make_context(sc.topology, sc.system, seed=7)
    monkeypatch.setattr(StochasticArbiter, "_pick", counting_pick)
    monkeypatch.setattr(ParticlePlaneBalancer, "_phase_b_node", failing_node)
    with pytest.raises(RuntimeError, match="boom"):
        balancer.step(ctx)
    assert 0 < sum(consumed) < balancer_mod._DRAW_BLOCK
    expected = np.random.default_rng(7)
    expected.random(sum(consumed))
    assert ctx.rng.bit_generator.state == expected.bit_generator.state

