"""Unit tests for the discrete-event asynchronous engine.

Covers the per-epoch link budget across desynchronised waves, the
heterogeneous clock model (speeds, stragglers, jitter), latency-delayed
transfers and configuration validation. The order checks every task
engine shares live in ``tests/sim/test_engine.py::TestOrderValidation``.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.interfaces import Balancer, Migration
from repro.network import mesh
from repro.runner.registry import make_balancer
from repro.sim import EventSimulator
from repro.tasks import TaskSystem
from repro.workloads import build_scenario, single_hotspot


def _setup(side=4, n_tasks=48, seed=0):
    topo = mesh(side, side)
    system = TaskSystem(topo)
    ids = single_hotspot(system, n_tasks, rng=seed)
    return topo, system, ids


class _ScriptedBalancer(Balancer):
    """Returns a fixed order list on the first step, then nothing."""

    name = "scripted"

    def __init__(self, orders):
        self.orders = list(orders)

    def step(self, ctx):
        orders, self.orders = self.orders, []
        return orders


class TestDefensiveValidation:
    def test_link_capacity_spans_waves_within_an_epoch(self):
        # "A single load per link per time unit" must hold across
        # desynchronised waves: with cadence 0.5 the waves at t=0.5 and
        # t=1.0 fall in the same epoch, so the second transfer over the
        # same link is refused as busy, not applied.
        topo, system, ids = _setup()
        src = system.location_of(ids[0])  # the hotspot node
        on_src = [int(t) for t in system.tasks_at(src)][:3]
        nbr = int(topo.neighbors(src)[0])
        orders = [Migration(t, src, nbr) for t in on_src]

        class OnePerStep(Balancer):
            name = "one-per-step"

            def step(self, ctx):
                return [orders.pop(0)] if orders else []

        sim = EventSimulator(topo, system, OnePerStep(), cadence=0.5,
                             link_capacity=1, seed=0)
        result = sim.run(max_rounds=3)
        # t=0 wave: applied (epoch 0). t=0.5 wave: applied; t=1.0 wave:
        # link busy (both land in epoch 1's record).
        assert result.records[0].n_migrations == 1
        assert result.records[1].n_migrations == 1
        assert result.records[1].blocked == 1
        # The refused task never moved.
        assert system.location_of(on_src[2]) == src


class TestClockModel:
    def test_stragglers_wake_less_often(self):
        topo, system, _ = _setup(n_tasks=64)
        sim = EventSimulator(
            topo, system, make_balancer("diffusion"),
            stragglers={0: 4.0}, seed=0,
            # Disable early convergence so every clock runs the full span.
        )
        sim.run(max_rounds=40)
        assert sim.wakes_per_node[0] < sim.wakes_per_node[1]
        # 4x slowdown => roughly a quarter of the wakes.
        assert sim.wakes_per_node[0] == pytest.approx(
            sim.wakes_per_node[1] / 4, abs=2
        )

    def test_string_straggler_keys_accepted(self):
        # sim_kwargs cross a JSON boundary in the runner cache, where
        # mapping keys become strings.
        topo, system, _ = _setup()
        sim = EventSimulator(
            topo, system, make_balancer("diffusion"), stragglers={"0": 2.0}, seed=0
        )
        sim.run(max_rounds=10)
        assert sim.wakes_per_node[0] < sim.wakes_per_node[1]

    def test_node_speeds_drive_default_cadence(self):
        topo, system, _ = _setup(n_tasks=64)
        speeds = np.ones(topo.n_nodes)
        speeds[3] = 0.25
        sim = EventSimulator(
            topo, system, make_balancer("diffusion"), node_speeds=speeds, seed=0
        )
        sim.run(max_rounds=40)
        assert sim.wakes_per_node[3] < sim.wakes_per_node[0]

    def test_wake_jitter_desynchronises_clocks(self):
        topo, system, _ = _setup(n_tasks=64)
        sim = EventSimulator(
            topo, system, make_balancer("diffusion"), wake_jitter=0.3, seed=0
        )
        result = sim.run(max_rounds=30)
        # Once desynchronised, waves are smaller than the full machine:
        # strictly more wake events than epochs-with-a-single-wave.
        assert sim.wakes_per_node.sum() > len(result.records)
        assert result.n_rounds >= 1

    def test_generator_seed_with_jitter_leaves_context_stream_untouched(self):
        # When the seed IS a Generator, deriving the clock stream must
        # not consume draws from it (spawn only bumps the spawn
        # counter) — otherwise toggling jitter would change stochastic
        # balancer trajectories at construction time.
        topo, system, _ = _setup()
        plain = np.random.default_rng(7)
        jittered = np.random.default_rng(7)
        EventSimulator(topo, system, make_balancer("none"), seed=plain)
        EventSimulator(topo, system, make_balancer("none"), seed=jittered,
                       wake_jitter=0.3)
        assert plain.integers(0, 2**31) == jittered.integers(0, 2**31)

    def test_wake_jitter_draws_do_not_perturb_balancer_stream(self):
        # Two runs with/without jitter use the same ctx rng stream for
        # the first (full) wave at t=0; jitter must come from its own
        # derived stream, not the context generator.
        topo_a, system_a, _ = _setup()
        topo_b, system_b, _ = _setup()
        a = EventSimulator(topo_a, system_a, make_balancer("work-stealing"), seed=9)
        b = EventSimulator(
            topo_b, system_b, make_balancer("work-stealing"), seed=9, wake_jitter=0.2
        )
        ra = a.run(max_rounds=1)
        rb = b.run(max_rounds=1)
        # Epoch 0 is a full wave in both runs (first jittered period
        # only affects wakes after t=0), so round 0 must be identical.
        assert ra.records[0] == rb.records[0]


class TestLatency:
    def test_size_latency_puts_tasks_on_the_wire(self):
        topo, system, _ = _setup(n_tasks=64)
        total_before = system.total_load
        sim = EventSimulator(
            topo, system, make_balancer("pplb"),
            transfer_latency="size", latency_scale=0.5, seed=0,
        )
        result = sim.run(max_rounds=120)
        # Load is conserved through transit, and everything eventually lands.
        assert system.total_load == pytest.approx(total_before)
        assert system.n_in_transit == 0
        assert result.n_rounds >= 1

    def test_constant_latency_delays_arrivals(self):
        topo, system, ids = _setup()
        tid = ids[0]
        src = system.location_of(tid)
        nbr = int(topo.neighbors(src)[0])
        sim = EventSimulator(
            topo, system, _ScriptedBalancer([Migration(tid, src, nbr)]),
            transfer_latency=2.5, seed=0,
        )
        result = sim.run(max_rounds=10)
        assert system.location_of(tid) == nbr
        # While on the wire the task is on no node: round 0 records the
        # post-departure surface.
        assert result.records[0].n_migrations == 1

    def test_second_run_lands_leftover_in_transit_tasks(self):
        # A run cut off with tasks on the wire must not strand them: a
        # fresh run() first lands everything (the event-engine analogue
        # of the sync engine draining its wire dict on reset).
        topo, system, _ = _setup(n_tasks=64)
        total = system.total_load
        sim = EventSimulator(
            topo, system, make_balancer("pplb"),
            transfer_latency=3.0, seed=0,
        )
        sim.run(max_rounds=3)  # stops mid-flight: arrivals still queued
        assert system.n_in_transit > 0
        result = sim.run(max_rounds=200)
        assert system.n_in_transit == 0
        assert system.total_load == pytest.approx(total)
        assert float(np.sum(system.node_loads)) == pytest.approx(total)
        assert result.converged

    def test_faulted_link_blocks_on_event_path(self):
        from repro.network.faults import FaultModel
        from repro.network.links import LinkAttributes

        topo, system, ids = _setup()
        tid = ids[0]
        src = system.location_of(tid)
        nbr = int(topo.neighbors(src)[0])
        attrs = LinkAttributes.uniform(topo)
        fm = FaultModel(attrs, permanent={0: [(src, nbr)]}, repair_after=None)
        sim = EventSimulator(
            topo, system, _ScriptedBalancer([Migration(tid, src, nbr)]),
            links=attrs, fault_model=fm, seed=0,
        )
        result = sim.run(max_rounds=5)
        assert system.location_of(tid) == src
        assert result.records[0].blocked == 1


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        topo, system, _ = _setup()
        bal = make_balancer("none")
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, cadence=0.0)
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, epoch=-1.0)
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, wake_jitter=1.0)
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, transfer_latency=-1)
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, transfer_latency="huge")
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, stragglers={0: 0.5})
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, stragglers={99: 2.0})
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal, clock_speeds=np.zeros(topo.n_nodes))
        with pytest.raises(ConfigurationError):
            EventSimulator(topo, system, bal).run(max_rounds=0)

    def test_counts_events_and_reports_progress(self):
        topo, system, _ = _setup()
        sim = EventSimulator(topo, system, make_balancer("diffusion"), seed=0)
        result = sim.run(max_rounds=20)
        # At least one wake per node per epoch plus the epoch events.
        assert sim.events_processed > result.n_rounds * topo.n_nodes
        assert sim.now == pytest.approx(result.n_rounds - 1)


class TestScenarios:
    def test_straggler_scenario_carries_speeds(self):
        sc = build_scenario("straggler", seed=0, side=4, n_tasks=32)
        assert sc.node_speeds is not None
        assert (sc.node_speeds < 1).sum() >= 1
        assert ((sc.node_speeds == 1) | (sc.node_speeds == 0.25)).all()

    def test_bursty_scenario_carries_churn(self):
        sc = build_scenario("bursty-arrivals", seed=0, side=4, n_tasks=32)
        assert sc.dynamic is not None
        assert sc.dynamic.arrival_nodes is not None
        assert len(sc.dynamic.arrival_nodes) == 4

    def test_bursty_runs_on_both_engines(self):
        from repro.runner import RunSpec, execute_spec

        for engine in ("rounds", "events"):
            spec = RunSpec(
                scenario="bursty-arrivals", algorithm="diffusion", seed=2,
                max_rounds=30, scenario_kwargs={"side": 4, "n_tasks": 32},
                engine=engine,
            )
            result = execute_spec(spec)
            assert result.n_rounds == 30  # churn: no quiescent convergence

    def test_sim_kwargs_override_scenario_extras(self):
        # A spec may override scenario-carried engine extras (e.g. the
        # straggler scenario's node_speeds) without a duplicate-keyword
        # crash; lists coerce like any node_speeds input.
        from repro.runner import RunSpec, execute_spec

        spec = RunSpec(
            scenario="straggler", algorithm="diffusion", seed=0, max_rounds=20,
            scenario_kwargs={"side": 4, "n_tasks": 32},
            sim_kwargs={"node_speeds": [1.0] * 16, "dynamic": None},
            engine="events",
        )
        result = execute_spec(spec)
        assert result.n_rounds >= 1
