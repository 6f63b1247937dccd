"""A per-round check of the paper's physical invariants on any task engine.

:class:`PhysicsChecker` watches a task engine (:class:`~repro.sim.Simulator`,
:class:`~repro.sim.EventSimulator` and the heap oracle of ``tests/heap_events.py``)
from the outside. It logs the :class:`~repro.tasks.TaskSystem` mutators
the engine calls (``move``, ``send_to_transit``, ``deliver``,
``add_task``, ``add_tasks``, ``remove_task``) and the round (or epoch)
boundary, and after every round it asserts:

* load is conserved: node loads plus wire load equal the initial total,
  plus every churn arrival, minus every completion;
* no node load is negative;
* every hop runs over a link of the topology that is up when the hop
  starts, and no link carries more than ``link_capacity`` hops in one
  round (epoch);
* every task put on the wire lands by its latency bound, or completes
  on the wire;
* for PPLB with µk > 0, the round's heat is >= 0, and a converged run
  ends with no particle in flight (Corollary 2).

The round boundary is the engine's ``play_round``, on every engine. A
:class:`~repro.sim.BatchSimulator` lane is the solo engine, so a checker
attached to each lane sees every round of the batch.

It reads public state only: the task system, the topology, the fault
model's up mask and the engine's ``link_capacity``, ``transfer_latency``,
``latency_scale``, ``links`` and ``now``. It never reads the engine's own
order bookkeeping, so a fault in the engine's order checks cannot hide
from it. A hop whose task completes on the wire never names its
destination, so its link goes unchecked. Every failure is an
``AssertionError`` whose message starts with ``physics check``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ParticlePlaneBalancer
from repro.exceptions import TopologyError
from repro.sim import EventSimulator

_TOL = 1e-9


class PhysicsChecker:
    """Attach to *sim* (before it runs); :meth:`run` runs and checks it."""

    def __init__(self, sim):
        self.sim = sim
        self.system = system = sim.system
        self.topology = sim.topology
        #: the event engines keep continuous time; the synchronous one rounds
        self.timed = isinstance(sim, EventSimulator)
        cfg = getattr(sim.balancer, "config", None)
        self.frictional = (
            isinstance(sim.balancer, ParticlePlaneBalancer)
            and cfg.mu_k_base > 0
            and cfg.kappa >= 0
        )
        self.expected = float(system.node_loads.sum()) + system.wire_load
        self.round = -1  # the round being played (for messages)
        self.epoch = 0  # rounds ended so far: the link-budget window
        self.rounds_checked = 0
        #: task on the wire -> (source, epoch sent, due, up mask at send)
        self.wire: dict[int, tuple[int, int, float, np.ndarray | None]] = {}
        #: (epoch, edge id) -> hops started over that link in that epoch
        self.hops: dict[tuple[int, int], int] = {}
        self._install()

    # ------------------------------------------------------------------ #

    def fail(self, what: str) -> None:
        raise AssertionError(f"physics check, round {self.round}: {what}")

    def run(self, max_rounds: int):
        """Run the engine; check every round, then Corollary 2."""
        return self.finish(self.sim.run(max_rounds=max_rounds))

    def finish(self, result):
        """Check Corollary 2 on a finished run."""
        assert self.rounds_checked > 0, "physics check saw no round"
        if self.frictional and result.converged:
            if self.sim.balancer.in_flight:
                self.fail(
                    f"converged with {self.sim.balancer.in_flight} particle(s) "
                    f"in flight"
                )
            if self.system.n_in_transit:
                self.fail(
                    f"converged with {self.system.n_in_transit} task(s) on the wire"
                )
        return result

    # ------------------------------------------------------------------ #

    def _install(self) -> None:
        sim, system = self.sim, self.system
        move, send, deliver = system.move, system.send_to_transit, system.deliver
        add_task, add_tasks, remove = (
            system.add_task, system.add_tasks, system.remove_task,
        )
        play_round = sim.play_round

        def checked_move(tid, dest):
            self._hop(system.location_of(tid), dest, self.epoch, self._up())
            move(tid, dest)

        def checked_send(tid):
            src = system.location_of(tid)
            due = self._due(system.load_of(tid), src)
            self.wire[tid] = (src, self.epoch, due, self._up())
            send(tid)

        def checked_deliver(tid, dest):
            if tid not in self.wire:
                self.fail(f"task {tid} lands on node {dest} but was never sent")
            src, epoch, _due, up = self.wire.pop(tid)
            self._hop(src, dest, epoch, up)
            deliver(tid, dest)

        def checked_add_task(load, node):
            tid = add_task(load, node)
            self.expected += system.load_of(tid)
            return tid

        def checked_add_tasks(loads, nodes):
            ids = add_tasks(loads, nodes)
            self.expected += sum(system.load_of(tid) for tid in ids)
            return ids

        def checked_remove(tid):
            load = system.load_of(tid)
            self.wire.pop(tid, None)  # completed on the wire
            remove(tid)
            self.expected -= load

        def checked_play_round(round_index):
            self.round = round_index
            stats = play_round(round_index)
            self._end_round(stats)
            return stats

        system.move = checked_move
        system.send_to_transit = checked_send
        system.deliver = checked_deliver
        system.add_task = checked_add_task
        system.add_tasks = checked_add_tasks
        system.remove_task = checked_remove
        sim.play_round = checked_play_round

    def _end_round(self, stats) -> None:
        self._check_round(stats)
        self.epoch += 1

    def _up(self) -> np.ndarray | None:
        """The fault model's current up mask (None: every link is up)."""
        fm = self.sim.fault_model
        return None if fm is None else fm.up_mask()

    def _due(self, load: float, src: int) -> float:
        """The latest round (or time) a task leaving *src* may land.

        The latency model is the engine's documented one; with
        size-proportional latency the bound takes the slowest link out
        of *src*, because the destination is not known until landing.
        """
        sim = self.sim
        latency = sim.transfer_latency
        if latency == "size":
            eids = [self.topology.edge_id(src, int(v))
                    for v in self.topology.neighbors(src)]
            per_hop = load * sim.links.distance[eids] / sim.links.bandwidth[eids]
            worst = float(per_hop.max())
            if self.timed:
                latency = worst * sim.latency_scale
            else:
                latency = max(math.ceil(worst), 1)
        if self.timed:
            return float(sim.now) + float(latency)
        return self.round + int(latency)

    def _hop(self, src: int, dst: int, epoch: int, up: np.ndarray | None) -> None:
        try:
            eid = self.topology.edge_id(src, dst)
        except TopologyError:
            self.fail(f"hop {src} -> {dst} is not over a link")
        if up is not None and not up[eid]:
            self.fail(f"hop {src} -> {dst} over a link that is down")
        n = self.hops.get((epoch, eid), 0) + 1
        self.hops[(epoch, eid)] = n
        if n > self.sim.link_capacity:
            self.fail(
                f"link ({src}, {dst}) carries {n} hops in one round, "
                f"capacity {self.sim.link_capacity}"
            )

    def _check_round(self, stats) -> None:
        system = self.system
        loads = system.node_loads
        total = float(loads.sum()) + system.wire_load
        if not math.isclose(total, self.expected, rel_tol=_TOL, abs_tol=_TOL):
            self.fail(f"load {total!r} on nodes and wire, expected {self.expected!r}")
        if loads.min() < -_TOL:
            node = int(loads.argmin())
            self.fail(f"node {node} has negative load {float(loads[node])!r}")
        if system.n_in_transit != len(self.wire):
            self.fail(
                f"{system.n_in_transit} task(s) on the wire, "
                f"{len(self.wire)} sent and not landed"
            )
        if self.timed:
            now = self.sim.now
            late = [tid for tid, (_, _, due, _) in self.wire.items()
                    if due < now - _TOL * max(1.0, now)]
        else:
            late = [tid for tid, (_, _, due, _) in self.wire.items()
                    if due <= self.round]
        if late:
            src, _, due, _ = self.wire[late[0]]
            self.fail(
                f"{len(late)} task(s) on the wire past their landing time, "
                f"e.g. task {late[0]} from node {src} due by {due!r}"
            )
        if self.frictional and stats.heat < 0:
            self.fail(f"negative heat {stats.heat!r} with mu_k > 0")
        self.rounds_checked += 1
