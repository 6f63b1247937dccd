"""Unit tests for repro.sim.engine.Simulator (task mode)."""

import pytest

from repro.baselines import NoBalancer
from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.exceptions import ConfigurationError, SimulationError, TopologyError
from repro.interfaces import Balancer, Migration
from repro.network import FaultModel, LinkAttributes, mesh
from repro.sim import EventFastSimulator, EventSimulator, Simulator
from repro.sim.engine import ConvergenceCriteria
from repro.tasks import TaskSystem
from repro.workloads import DynamicWorkload, single_hotspot


class ScriptedBalancer(Balancer):
    """Returns pre-scripted migrations per round (for engine tests)."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def step(self, ctx):
        return self.script.get(ctx.round_index, [])


class TestValidationAndSetup:
    def test_mismatched_system_topology(self, mesh4):
        other = mesh(3, 3)
        system = TaskSystem(other)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer())

    def test_mismatched_links(self, mesh4):
        system = TaskSystem(mesh4)
        links = LinkAttributes.uniform(mesh(3, 3))
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer(), links=links)

    def test_bad_capacity_and_rounds(self, mesh4):
        system = TaskSystem(mesh4)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer(), link_capacity=0)
        sim = Simulator(mesh4, system, NoBalancer())
        with pytest.raises(ConfigurationError):
            sim.run(max_rounds=0)

    @pytest.mark.parametrize(
        "engine, kwargs, message",
        [
            (Simulator, {"node_speeds": [1.0] * 5, "link_capacity": 0},
             r"node_speeds must have shape \(16,\)"),
            (Simulator, {"transfer_latency": -1, "links": "other"},
             "transfer_latency must be >= 0"),
            (Simulator, {"link_capacity": 0, "recorder": "bogus"},
             "link_capacity must be >= 1"),
            (EventSimulator, {"link_capacity": 0, "node_speeds": [1.0] * 5},
             "link_capacity must be >= 1"),
            (EventSimulator, {"cadence": 0, "recorder": "bogus"},
             "cadence must be positive"),
            (EventSimulator, {"node_speeds": [1.0] * 5, "wake_jitter": 2},
             r"wake_jitter must be in \[0, 1\)"),
            (EventFastSimulator, {"stragglers": {99: 2.0}, "links": "other"},
             r"straggler node 99 out of range \[0, 16\)"),
            (EventFastSimulator, {"epoch": 0, "probe": "bogus"},
             "epoch must be positive"),
        ],
    )
    def test_first_bad_argument_raises(self, mesh4, engine, kwargs, message):
        """With two bad arguments, each engine keeps its own check order."""
        if kwargs.get("links") == "other":
            kwargs = {**kwargs, "links": LinkAttributes.uniform(mesh(3, 3))}
        with pytest.raises(ConfigurationError, match=message):
            engine(mesh4, TaskSystem(mesh4), NoBalancer(), **kwargs)

    def test_criteria_validation(self):
        with pytest.raises(ConfigurationError):
            ConvergenceCriteria(quiet_rounds=0)
        with pytest.raises(ConfigurationError):
            ConvergenceCriteria(spread_tol=-1.0)


#: every task engine class, the heap-driven event oracle included; all
#: three apply orders through one path
TASK_ENGINES = {
    "Simulator": Simulator,
    "EventSimulator": EventSimulator,
    "EventFastSimulator": EventFastSimulator,
}

#: clocks that make the event engines' t=1 wave partial: nodes 0 and 15
#: (the 4x4 mesh's corners) wake every 2 time units, the rest every 1
CORNER_STRAGGLERS = {0: 2.0, 15: 2.0}


class RecordingScript(ScriptedBalancer):
    """A :class:`ScriptedBalancer` that keeps each step's awake mask."""

    def __init__(self, script):
        super().__init__(script)
        self.awake = {}

    def step(self, ctx):
        self.awake[ctx.round_index] = ctx.awake
        return super().step(ctx)


@pytest.mark.parametrize("engine", list(TASK_ENGINES))
class TestOrderValidation:
    """An invalid order raises the same error, message included, on
    every task engine."""

    def test_rejects_move_of_dead_task(self, mesh4, engine):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        system.remove_task(tid)
        balancer = ScriptedBalancer({0: [Migration(tid, 0, 1)]})
        sim = TASK_ENGINES[engine](mesh4, system, balancer)
        with pytest.raises(SimulationError, match=f"^balancer ordered a move of dead task {tid}$"):
            sim.run(max_rounds=1)

    def test_rejects_wrong_source(self, mesh4, engine):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        balancer = ScriptedBalancer({0: [Migration(tid, 5, 6)]})
        sim = TASK_ENGINES[engine](mesh4, system, balancer)
        with pytest.raises(
            SimulationError, match=f"^task {tid} is at node 0, not at claimed source 5$"
        ):
            sim.run(max_rounds=1)

    def test_rejects_non_edge(self, mesh4, engine):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        balancer = ScriptedBalancer({0: [Migration(tid, 0, 5)]})
        sim = TASK_ENGINES[engine](mesh4, system, balancer)
        with pytest.raises(
            TopologyError, match="^no edge between 0 and 5 in topology 'mesh-4x4'$"
        ):
            sim.run(max_rounds=1)

    def test_rejects_over_capacity(self, mesh4, engine):
        system = TaskSystem(mesh4)
        a = system.add_task(1.0, 0)
        b = system.add_task(1.0, 0)
        balancer = ScriptedBalancer({0: [Migration(a, 0, 1), Migration(b, 0, 1)]})
        sim = TASK_ENGINES[engine](mesh4, system, balancer)
        with pytest.raises(SimulationError, match=r"^link \(0, 1\) over capacity: 2 > 1$"):
            sim.run(max_rounds=1)

    def test_capacity_2_allows_pairs(self, mesh4, engine):
        system = TaskSystem(mesh4)
        a = system.add_task(1.0, 0)
        b = system.add_task(1.0, 0)
        balancer = ScriptedBalancer({0: [Migration(a, 0, 1), Migration(b, 0, 1)]})
        sim = TASK_ENGINES[engine](mesh4, system, balancer, link_capacity=2)
        res = sim.run(max_rounds=1)
        assert res.total_migrations == 2

    @pytest.mark.parametrize("dst", [-1, 16, 99])
    @pytest.mark.parametrize("round_index", [0, 1])
    def test_out_of_range_endpoint_is_a_non_edge(self, mesh4, engine, round_index, dst):
        # Round 1 on the event engines is a partial wave in which both
        # corners sleep; an out-of-range endpoint must not be read from
        # the awake mask (-1 would wrap to node 15, 99 overflow it).
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        balancer = RecordingScript({round_index: [Migration(tid, 0, dst)]})
        kwargs = {"stragglers": CORNER_STRAGGLERS} if engine.startswith("Event") else {}
        sim = TASK_ENGINES[engine](mesh4, system, balancer, **kwargs)
        with pytest.raises(
            TopologyError, match=f"^no edge between 0 and {dst} in topology 'mesh-4x4'$"
        ):
            sim.run(max_rounds=3)
        awake = balancer.awake[round_index]
        if engine.startswith("Event") and round_index == 1:
            assert not awake[0] and not awake[15] and awake[1:15].all()
        else:
            assert awake is None


@pytest.mark.parametrize("engine", ["EventSimulator", "EventFastSimulator"])
def test_order_between_sleeping_nodes_is_dropped(mesh4, engine):
    system = TaskSystem(mesh4)
    tid = system.add_task(1.0, 0)
    balancer = ScriptedBalancer({1: [Migration(tid, 0, 1)]})
    sim = TASK_ENGINES[engine](mesh4, system, balancer, stragglers={0: 2.0, 1: 2.0})
    res = sim.run(max_rounds=2)
    assert res.records[1].asleep == 1
    assert res.total_migrations == 0
    assert system.location_of(tid) == 0


class TestFaults:
    def test_blocked_migrations_counted_not_applied(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        attrs = LinkAttributes.uniform(mesh4)
        fm = FaultModel(attrs, rng=0, permanent={0: [(0, 1)]})
        sim = Simulator(
            mesh4,
            system,
            ScriptedBalancer({0: [Migration(tid, 0, 1)]}),
            links=attrs,
            fault_model=fm,
        )
        res = sim.run(max_rounds=1)
        assert res.total_migrations == 0
        assert res.records[0].blocked == 1
        assert system.location_of(tid) == 0


class TestAccounting:
    def test_traffic_is_load_times_cost(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(2.0, 0)
        attrs = LinkAttributes.uniform(mesh4, distance=3.0)  # e = 3
        sim = Simulator(
            mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 1)]}), links=attrs
        )
        res = sim.run(max_rounds=1)
        assert res.records[0].traffic_work == pytest.approx(6.0)

    def test_heat_passthrough(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(
            mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 1, heat=7.5)]})
        )
        res = sim.run(max_rounds=1)
        assert res.records[0].heat == pytest.approx(7.5)

    def test_journey_tracking(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        script = {0: [Migration(tid, 0, 1)], 1: [Migration(tid, 1, 2)]}
        sim = Simulator(mesh4, system, ScriptedBalancer(script), track_journeys=True)
        sim.run(max_rounds=3)
        assert sim.task_hops[tid] == 2
        disp = sim.journey_displacements()
        assert disp[tid] == 2  # 0 -> 2 is two hops on the mesh

    def test_journey_tracking_requires_flag(self, mesh4):
        system = TaskSystem(mesh4)
        sim = Simulator(mesh4, system, NoBalancer())
        with pytest.raises(ConfigurationError):
            sim.journey_displacements()


class TestConvergence:
    def test_quiet_rounds_trigger(self, mesh4):
        system = TaskSystem(mesh4)
        system.add_task(1.0, 0)
        sim = Simulator(
            mesh4, system, NoBalancer(), criteria=ConvergenceCriteria(quiet_rounds=3)
        )
        res = sim.run(max_rounds=100)
        assert res.converged_round == 0
        assert res.n_rounds == 3

    def test_spread_tol_with_idle_balancer(self, mesh4):
        system = TaskSystem(mesh4)
        from repro.workloads import balanced

        balanced(system, tasks_per_node=2, rng=0)
        sim = Simulator(
            mesh4,
            system,
            NoBalancer(),
            criteria=ConvergenceCriteria(quiet_rounds=50, spread_tol=0.1),
        )
        res = sim.run(max_rounds=100)
        assert res.converged_round == 0
        assert res.n_rounds == 1

    def test_no_convergence_under_churn(self, mesh4):
        system = TaskSystem(mesh4)
        wl = DynamicWorkload(arrival_rate=2.0, completion_prob=0.05, rng=0)
        sim = Simulator(mesh4, system, NoBalancer(), dynamic=wl)
        res = sim.run(max_rounds=30)
        assert res.n_rounds == 30
        assert res.converged_round is None

    def test_records_task_counts_under_churn(self, mesh4):
        system = TaskSystem(mesh4)
        wl = DynamicWorkload(arrival_rate=3.0, completion_prob=0.0, rng=0)
        sim = Simulator(mesh4, system, NoBalancer(), dynamic=wl)
        res = sim.run(max_rounds=10)
        counts = res.series("n_tasks")
        assert counts[-1] >= counts[0]
        assert counts[-1] > 0


class TestEndToEnd:
    def test_pplb_full_run_properties(self, mesh8):
        system = TaskSystem(mesh8)
        single_hotspot(system, 256, rng=0)
        total0 = system.total_load
        sim = Simulator(
            mesh8, system, ParticlePlaneBalancer(PPLBConfig()), seed=0
        )
        res = sim.run(max_rounds=300)
        assert system.total_load == pytest.approx(total0)  # conservation
        assert res.final_cov < res.initial_summary["cov"] / 10
        assert res.converged
        # spread series is eventually non-increasing-ish: final < initial
        assert res.records[-1].spread < res.records[0].spread
