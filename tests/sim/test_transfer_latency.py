"""Tests for the transfer-latency (wire) model."""

import pytest

from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.exceptions import ConfigurationError, TaskError
from repro.interfaces import Balancer, Migration
from repro.sim import EventSimulator, Simulator
from repro.tasks import TaskSystem
from repro.workloads import single_hotspot


class OneShot(Balancer):
    """Moves one scripted task at round 0, then nothing."""

    name = "one-shot"

    def __init__(self, tid, src, dst):
        self.order = Migration(tid, src, dst)

    def step(self, ctx):
        return [self.order] if ctx.round_index == 0 else []


class Script(Balancer):
    """Plays scripted orders, round index -> orders, each round once (a
    reset re-run does not replay them)."""

    name = "script"

    def __init__(self, orders):
        self.orders = dict(orders)

    def step(self, ctx):
        return self.orders.pop(ctx.round_index, [])


def log_landings(system):
    """Record every ``(task, node)`` landing on *system*, in call order."""
    landed = []
    deliver = system.deliver

    def logged(tid, dest):
        landed.append((tid, dest))
        deliver(tid, dest)

    system.deliver = logged
    return landed


class TestTaskSystemWire:
    def test_transit_removes_from_node(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(2.0, 3)
        s.send_to_transit(tid)
        assert s.in_transit(tid)
        assert s.node_loads[3] == 0.0
        assert s.wire_load == 2.0
        assert s.total_load == 2.0  # conserved including the wire
        assert tid not in s.tasks_at(3)
        assert s.location_of(tid) == TaskSystem.TRANSIT

    def test_deliver(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(2.0, 3)
        s.send_to_transit(tid)
        s.deliver(tid, 7)
        assert not s.in_transit(tid)
        assert s.node_loads[7] == 2.0
        assert s.wire_load == 0.0
        assert s.location_of(tid) == 7

    def test_cannot_move_in_transit(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(1.0, 0)
        s.send_to_transit(tid)
        with pytest.raises(TaskError):
            s.move(tid, 1)
        with pytest.raises(TaskError):
            s.send_to_transit(tid)

    def test_deliver_requires_transit(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(1.0, 0)
        with pytest.raises(TaskError):
            s.deliver(tid, 1)

    def test_remove_while_in_transit(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(1.5, 0)
        s.send_to_transit(tid)
        s.remove_task(tid)
        assert s.wire_load == 0.0
        assert not s.is_alive(tid)
        assert s.total_load == 0.0


class TestEngineLatency:
    def test_validation(self, mesh4):
        system = TaskSystem(mesh4)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, OneShot(0, 0, 1), transfer_latency=-1)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, OneShot(0, 0, 1), transfer_latency="huge")

    def test_fixed_latency_delays_arrival(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(mesh4, system, OneShot(tid, 0, 1), transfer_latency=3)
        # After round 0 the task is on the wire.
        sim.run(max_rounds=1)
        assert system.in_transit(tid)
        assert system.node_loads.sum() == 0.0
        # Rounds 1 and 2: still flying. Lands at round 3's start.
        sim.run(max_rounds=2, reset=False)
        assert system.in_transit(tid)
        sim.run(max_rounds=1, reset=False)
        assert not system.in_transit(tid)
        assert system.location_of(tid) == 1

    def test_size_latency_scales_with_load(self, mesh4):
        system = TaskSystem(mesh4)
        small = system.add_task(1.0, 0)
        big = system.add_task(4.0, 5)

        class TwoShots(Balancer):
            name = "two-shots"

            def step(self, ctx):
                if ctx.round_index == 0:
                    return [Migration(small, 0, 1), Migration(big, 5, 6)]
                return []

        sim = Simulator(mesh4, system, TwoShots(), transfer_latency="size")
        sim.run(max_rounds=1)
        assert system.in_transit(small) and system.in_transit(big)
        sim.run(max_rounds=1, reset=False)  # round 1: small (ceil(1)=1) lands
        assert not system.in_transit(small)
        assert system.in_transit(big)
        sim.run(max_rounds=3, reset=False)  # big lands at round 4 (ceil(4)=4)
        assert not system.in_transit(big)
        assert system.location_of(big) == 6

    def test_one_round_lands_in_send_order(self, mesh4):
        # Three tasks converge on node 1 over three links and land in
        # round 2 in the order they were sent, not in id order: the
        # node's load sum is the float sum in that order.
        system = TaskSystem(mesh4)
        a = system.add_task(0.1, 5)
        b = system.add_task(0.2, 0)
        c = system.add_task(0.3, 2)
        orders = {0: [Migration(c, 2, 1), Migration(a, 5, 1), Migration(b, 0, 1)]}
        sim = Simulator(mesh4, system, Script(orders), transfer_latency=2)
        landed = log_landings(system)
        sim.run(max_rounds=2)
        assert landed == [] and system.n_in_transit == 3
        sim.run(max_rounds=1, reset=False)
        assert landed == [(c, 1), (a, 1), (b, 1)]
        assert system.node_loads[1] == (0.3 + 0.1) + 0.2

    def test_reset_lands_the_wire_in_due_then_send_order(self, mesh4):
        # Two big tasks sent in round 0 are due in round 3; a small one
        # sent in round 1 is due in round 2. A reset re-run lands all
        # three on node 1 before its first round: the small one first,
        # then the two big ones in the order they were sent.
        system = TaskSystem(mesh4)
        big_a = system.add_task(3.0, 0)
        big_b = system.add_task(3.0, 5)
        small = system.add_task(0.5, 2)
        orders = {
            0: [Migration(big_b, 5, 1), Migration(big_a, 0, 1)],
            1: [Migration(small, 2, 1)],
        }
        sim = Simulator(mesh4, system, Script(orders), transfer_latency="size")
        landed = log_landings(system)
        sim.run(max_rounds=2)
        assert landed == [] and system.n_in_transit == 3
        sim.run(max_rounds=1, reset=True)
        assert landed == [(small, 1), (big_b, 1), (big_a, 1)]
        assert system.n_in_transit == 0
        assert system.node_loads[1] == 6.5

    def test_no_false_convergence_while_flying(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(mesh4, system, OneShot(tid, 0, 1), transfer_latency=30)
        res = sim.run(max_rounds=20)
        # Engine may not declare quiescence while the wire is busy.
        assert res.converged_round is None or res.converged_round > 20

    def test_pplb_balances_under_latency(self, mesh8):
        system = TaskSystem(mesh8)
        single_hotspot(system, 256, rng=0)
        total0 = system.total_load
        sim = Simulator(
            mesh8,
            system,
            ParticlePlaneBalancer(PPLBConfig()),
            transfer_latency=2,
            seed=0,
        )
        res = sim.run(max_rounds=800)
        assert res.converged
        assert system.n_in_transit == 0
        assert res.final_cov < 0.3
        assert system.total_load == pytest.approx(total0)  # conserved

    def test_latency_slows_convergence(self, mesh8):
        def rounds(latency):
            system = TaskSystem(mesh8)
            single_hotspot(system, 256, rng=0)
            sim = Simulator(
                mesh8,
                system,
                ParticlePlaneBalancer(PPLBConfig(beta0=0.0)),
                transfer_latency=latency,
                seed=0,
            )
            res = sim.run(max_rounds=1500)
            assert res.converged
            return res.converged_round

        assert rounds(0) < rounds(4)


class TestWireArguments:
    """A latency or capacity the engine would silently round is refused."""

    @pytest.mark.parametrize("latency", [2.7, 0.5, True, False])
    def test_rounds_latency_must_be_a_whole_number(self, mesh4, latency):
        with pytest.raises(ConfigurationError, match="transfer_latency"):
            Simulator(mesh4, TaskSystem(mesh4), Script({}),
                      transfer_latency=latency)

    @pytest.mark.parametrize("latency", [0, 2, 2.0, "size"])
    def test_rounds_latency_whole_numbers_and_size_pass(self, mesh4, latency):
        sim = Simulator(mesh4, TaskSystem(mesh4), Script({}),
                        transfer_latency=latency)
        assert sim.transfer_latency == latency

    def test_events_latency_may_be_fractional_but_not_a_bool(self, mesh4):
        sim = EventSimulator(mesh4, TaskSystem(mesh4), Script({}),
                             transfer_latency=2.7)
        assert sim.transfer_latency == 2.7
        with pytest.raises(ConfigurationError, match="transfer_latency"):
            EventSimulator(mesh4, TaskSystem(mesh4), Script({}),
                           transfer_latency=True)

    @pytest.mark.parametrize("engine", [Simulator, EventSimulator],
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("capacity", [2.9, 2.0, True])
    def test_link_capacity_must_be_an_int(self, mesh4, engine, capacity):
        with pytest.raises(ConfigurationError, match="link_capacity"):
            engine(mesh4, TaskSystem(mesh4), Script({}), link_capacity=capacity)
