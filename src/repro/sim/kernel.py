"""The shared simulation kernel: one run loop for every engine.

Historically each engine (synchronous, fast, fluid, event) carried its
own copy of the per-round lifecycle — fault sampling, churn, balancer
step, apply/deliver, metric observation, convergence detection — so
every new capability had to be written four times.
:class:`SimulationLoop` owns that lifecycle once; each engine is a thin
*driver* (:class:`RoundDriver`) that supplies the engine-specific
pieces: how to reset, how to advance the system through one round (or
epoch of continuous time), and what load surface to observe.

Per round, the kernel runs::

    driver.play_round(r)     fault/churn sampling, balancer step(s),
                             apply/deliver — engine-specific
    observe                  imbalance summary of driver.observed_loads()
    recorder.observe(...)    pluggable recording policy (full / thin /
                             summary — see repro.sim.recording)
    convergence check        quiet-window (task mode) or spread
                             tolerance (fluid mode), shared verbatim

so every engine gets identical convergence semantics, identical record
fields, and any :class:`~repro.sim.recording.Recorder` for free. The
task engines (synchronous and event) also share :class:`TaskStateMixin`:
their shared constructor state, the balancer context, the one path that
validates and applies a wave of orders, and the wire a migrating task
waits on until it lands. The kernel allocates no per-round Python
objects: metrics flow to the recorder as scalars, and a columnar
:class:`~repro.sim.results.RoundLog` (or O(1) running aggregates)
receives them.
"""

from __future__ import annotations

import abc
import heapq
import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import BalanceContext, Migration
from repro.network.links import LinkAttributes, link_costs
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng
from repro.sim.metrics import imbalance_summary
from repro.sim.recording import RecorderSpec, make_recorder
from repro.sim.results import SimulationResult
from repro.sim.telemetry import ProbeSpec, make_probe
from repro.tasks.task import TaskSystem

__all__ = [
    "RoundStats",
    "RoundDriver",
    "TaskStateMixin",
    "RunState",
    "SimulationLoop",
]


@dataclass
class RoundStats:
    """What one round of engine work reports back to the kernel.

    The imbalance metrics are *not* here — the kernel observes them
    itself from :meth:`RoundDriver.observed_loads` so every engine
    measures the same surface the same way.
    """

    applied: int = 0
    work: float = 0.0
    heat: float = 0.0
    blocked: int = 0
    asleep: int = 0
    n_tasks: int = 0


class RoundDriver(abc.ABC):
    """The engine-specific hooks :class:`SimulationLoop` drives.

    Required attributes (engines set these in ``__init__``):

    ``balancer``
        The algorithm under test (`.name` labels the result; task-mode
        drivers additionally rely on ``.idle()``).
    ``criteria``
        The :class:`~repro.sim.engine.ConvergenceCriteria` in force.
    ``dynamic``
        The churn process or None — convergence detection is skipped
        under churn (there is no quiescent state to converge to).
    ``fluid_mode``
        Class flag selecting the spread-tolerance convergence rule
        instead of the task-mode quiet-window rule.
    """

    #: fluid drivers flip this to get spread-tolerance convergence.
    fluid_mode = False

    @abc.abstractmethod
    def prepare(self, reset: bool) -> int:
        """Reset run state as requested; return the starting round index.

        A driver that supports continuation (``reset=False``) keeps the
        balancer's in-flight state and returns its running round
        counter; all others reset unconditionally and return 0.
        """

    @abc.abstractmethod
    def play_round(self, round_index: int) -> RoundStats:
        """Advance the system through one round (or epoch) of protocol.

        Everything between two observations lives here: fault
        realisation, in-transit deliveries, workload churn, the
        balancer step(s) and order application. The returned stats
        feed the recorder and the convergence check.
        """

    @abc.abstractmethod
    def observed_loads(self) -> np.ndarray:
        """The load surface metrics are computed on (effective loads)."""

    def in_transit_count(self) -> int:
        """Tasks currently on the wire (task engines override)."""
        return 0

    def in_flight_now(self) -> int:
        """Balancer-reported in-flight particles after this round."""
        balancer = self.balancer
        return 0 if balancer.idle() else getattr(balancer, "in_flight", 1)

    def finish(self, next_round: int) -> None:
        """Post-run bookkeeping (e.g. persisting the round counter)."""


class TaskStateMixin:
    """What the task engines (synchronous and event) share.

    The shared constructor state and checks (:meth:`_init_task_engine`,
    :meth:`_checked_node_speeds`, :meth:`_check_wire_args`), the
    balancer context, the one order-application path
    (:meth:`_apply_wave`), the wire and the per-epoch counters live
    here. The wire is one heap of ``(when, seq, task id, dest)``
    entries: a task sent at ``now`` waits on it for its latency and
    lands in ``(due time, send order)`` order, whether the engine lands
    it at the top of a round (:meth:`_land_due`) or as one event among
    wakes (the event engine pops ``_wire`` itself). Each engine supplies
    only one thing of its own: ``_latency_of(load, eid)``, a transfer's
    time on the wire, in its time unit.
    """

    #: per-task journey tracking (the synchronous engine's option)
    track_journeys = False

    @staticmethod
    def _checked_node_speeds(node_speeds, n: int) -> Optional[np.ndarray]:
        """*node_speeds* as a float array, checked for shape, sign and
        finiteness."""
        if node_speeds is None:
            return None
        node_speeds = np.asarray(node_speeds, dtype=np.float64)
        if node_speeds.shape != (n,):
            raise ConfigurationError(
                f"node_speeds must have shape ({n},), got {node_speeds.shape}"
            )
        if not (np.isfinite(node_speeds) & (node_speeds > 0)).all():
            raise ConfigurationError("node speeds must be positive and finite")
        return node_speeds

    @staticmethod
    def _check_wire_args(link_capacity, transfer_latency, whole_rounds: bool) -> None:
        """Check the link capacity and the transfer latency.

        ``link_capacity`` is an int >= 1. ``transfer_latency`` is
        ``"size"`` or a finite number >= 0, never a bool; with
        *whole_rounds* (the synchronous engine, whose wire counts
        rounds) it must also be a whole number, so no value is silently
        rounded.
        """
        if isinstance(link_capacity, bool) or not isinstance(
            link_capacity, numbers.Integral
        ):
            raise ConfigurationError(f"link_capacity must be an int, got {link_capacity!r}")
        if link_capacity < 1:
            raise ConfigurationError(f"link_capacity must be >= 1, got {link_capacity}")
        if transfer_latency == "size":
            return
        if isinstance(transfer_latency, bool) or not isinstance(
            transfer_latency, numbers.Real
        ):
            kind = "an int" if whole_rounds else "a float"
            raise ConfigurationError(
                f"transfer_latency must be {kind} >= 0 or 'size', got {transfer_latency!r}"
            )
        if not (math.isfinite(transfer_latency) and transfer_latency >= 0):
            raise ConfigurationError(
                f"transfer_latency must be >= 0 and finite, got {transfer_latency}"
            )
        if whole_rounds and transfer_latency != int(transfer_latency):
            raise ConfigurationError(
                f"transfer_latency must be a whole number of rounds, got {transfer_latency}"
            )

    def _init_task_engine(
        self,
        *,
        topology: Topology,
        system: TaskSystem,
        balancer,
        links: Optional[LinkAttributes],
        fault_model,
        task_graph,
        resources,
        dynamic,
        link_capacity: int,
        transfer_latency,
        c1: float,
        e0: float,
        seed: RngLike,
        criteria,
        node_speeds: Optional[np.ndarray],
        recorder: RecorderSpec,
        probe: ProbeSpec,
    ) -> None:
        """Check the link attributes; store what both task engines take.

        Each engine calls this once its own argument checks have passed,
        so it keeps its own check order: with several bad arguments, the
        first one in that order raises.
        """
        self.links = links if links is not None else LinkAttributes.uniform(topology)
        if self.links.topology is not topology:
            raise ConfigurationError("link attributes were built for a different topology")
        self.topology = topology
        self.system = system
        self.balancer = balancer
        self.fault_model = fault_model
        self.task_graph = task_graph
        self.resources = resources
        self.dynamic = dynamic
        self.link_capacity = link_capacity
        self.transfer_latency = transfer_latency
        self.criteria = criteria
        self.node_speeds = node_speeds
        self.rng = ensure_rng(seed)
        self.link_costs = link_costs(self.links, c1=c1, e0=e0)
        self._link_costs_l: list[float] = self.link_costs.tolist()
        self._all_up = np.ones(topology.n_edges, dtype=bool)
        self._wire: list[tuple] = []  # heap of (when, seq, task id, dest)
        self._wire_seq = 0
        self.probe = make_probe(probe)
        self._loop = SimulationLoop(self, recorder=recorder, probe=self.probe)

    def _context(
        self, round_index: int, up_mask: np.ndarray, awake: Optional[np.ndarray] = None
    ) -> BalanceContext:
        return BalanceContext(
            topology=self.topology,
            system=self.system,
            links=self.links,
            link_costs=self.link_costs,
            up_mask=up_mask,
            round_index=round_index,
            rng=self.rng,
            task_graph=self.task_graph,
            resources=self.resources,
            node_speeds=self.node_speeds,
            awake=awake,
            probe=self.probe if self.probe.enabled else None,
        )

    def _apply_wave(
        self,
        migrations: list[Migration],
        up_mask: np.ndarray,
        awake: Optional[np.ndarray],
        now: float,
    ) -> None:
        """Validate and apply one wave of orders onto the epoch counters.

        Every order is checked, in this order:

        1. *asleep* — with an ``awake`` mask (a partial wave; ``None``
           is a full one), an order whose endpoints are both in range
           and both asleep is dropped and counted in ``asleep``: the
           decision never happened. An awake src is a push, an awake
           dst a pull (work stealing);
        2. *dead task* — raises :class:`SimulationError`;
        3. *wrong source* — raises :class:`SimulationError`;
        4. *non-edge* (an out-of-range endpoint included) — raises
           :class:`~repro.exceptions.TopologyError`;
        5. *fault* — a link that is down refuses the transfer
           (``blocked``);
        6. *over capacity within the wave* — more orders over one link
           than one step may schedule raises :class:`SimulationError`;
        7. *link budget* — a link whose per-epoch budget an earlier
           wave spent is busy and refuses the transfer (``blocked``).

        The synchronous engine plays one full wave per epoch, so rules
        1 and 7 never fire there. Work and heat accumulate onto the
        running epoch totals one order at a time. A wave with no orders
        touches nothing.
        """
        if not migrations:
            return
        system = self.system
        edge_id = self.topology.edge_id
        n = self.topology.n_nodes
        up = bytearray(up_mask)
        if awake is not None:
            awake = bytearray(awake)
        costs = self._link_costs_l
        capacity = self.link_capacity
        budget = self._ep_link_used
        track = self.track_journeys
        wave: dict[int, int] = {}
        applied = blocked = asleep = 0
        work = self._ep_work
        heat = self._ep_heat
        for tid, src, dst, m_heat in migrations:
            if (
                awake is not None
                and 0 <= src < n
                and 0 <= dst < n
                and not (awake[src] or awake[dst])
            ):
                asleep += 1
                continue
            site = system.placement_of(tid)
            if site is None:
                raise SimulationError(f"balancer ordered a move of dead task {tid}")
            loc, load = site
            if loc != src:
                raise SimulationError(f"task {tid} is at node {loc}, not at claimed source {src}")
            eid = edge_id(src, dst)  # raises on non-edges
            if not up[eid]:
                blocked += 1
                continue
            used = wave.get(eid, 0) + 1
            if used > capacity:
                raise SimulationError(f"link ({src}, {dst}) over capacity: {used} > {capacity}")
            if used + budget.get(eid, 0) > capacity:
                blocked += 1
                continue
            wave[eid] = used
            latency = self._latency_of(load, eid)
            if latency <= 0:
                system.move(tid, dst)
            else:
                system.send_to_transit(tid)
                self._send(now + latency, tid, dst)
            applied += 1
            work += load * costs[eid]
            heat += m_heat
            if track:
                self.task_origin.setdefault(tid, src)
                self.task_hops[tid] = self.task_hops.get(tid, 0) + 1
        for eid, used in wave.items():
            budget[eid] = budget.get(eid, 0) + used
        self._ep_applied += applied
        self._ep_blocked += blocked
        self._ep_asleep += asleep
        self._ep_work = work
        self._ep_heat = heat

    def _send(self, when, tid: int, dst: int) -> None:
        """Put task *tid* on the wire, due to land on *dst* at *when*."""
        self._wire_seq += 1
        heapq.heappush(self._wire, (when, self._wire_seq, tid, dst))

    def _land(self, tid: int, dest: int) -> None:
        """Land an in-flight task, unless it completed on the wire."""
        if self.system.is_alive(tid):
            self.system.deliver(tid, dest)

    def _land_due(self, until) -> None:
        """Land every transfer due at or before *until*, earliest first,
        send order breaking ties."""
        wire = self._wire
        while wire and wire[0][0] <= until:
            _when, _seq, tid, dest = heapq.heappop(wire)
            self._land(tid, dest)

    def _land_wire(self) -> None:
        """Land everything still on the wire, in order: a fresh run
        starts with every task on a node."""
        self._land_due(math.inf)

    def _reset_epoch(self) -> None:
        """Zero the epoch counters and the per-link epoch budget."""
        self._ep_applied = 0
        self._ep_work = 0.0
        self._ep_heat = 0.0
        self._ep_blocked = 0
        self._ep_asleep = 0
        self._ep_link_used: dict[int, int] = {}

    def _epoch_stats(self) -> RoundStats:
        """The epoch's counters as :class:`RoundStats`; starts a new epoch."""
        stats = RoundStats(
            applied=self._ep_applied,
            work=self._ep_work,
            heat=self._ep_heat,
            blocked=self._ep_blocked,
            asleep=self._ep_asleep,
            n_tasks=self.system.n_tasks,
        )
        self._reset_epoch()
        return stats

    def observed_loads(self) -> np.ndarray:
        """Loads normalised by speed (the metric surface)."""
        h = self.system.node_loads
        if self.node_speeds is None:
            return h
        return h / self.node_speeds

    def in_transit_count(self) -> int:
        return self.system.n_in_transit

    def _churn(self) -> None:
        """One churn step, with dependency/affinity cleanup."""
        created, removed = self.dynamic.step(self.system)
        if self.task_graph is not None:
            for tid in removed:
                self.task_graph.drop_task(tid)
        if self.resources is not None:
            for tid in removed:
                self.resources.drop_task(tid)


@dataclass
class RunState:
    """In-progress bookkeeping of one :meth:`SimulationLoop.run`.

    ``r`` is the *next* round to play; after the loop it equals the
    number of rounds completed plus the starting base, which is exactly
    what :meth:`RoundDriver.finish` expects. ``done`` flips when the
    run converged or exhausted its round budget.
    """

    r: int
    end_round: int
    quiet: int = 0
    converged_at: int | None = None
    done: bool = False


class SimulationLoop:
    """The run loop shared by every engine.

    Parameters
    ----------
    driver:
        The engine supplying the per-round hooks.
    recorder:
        Recording policy — a spec string (``"full"``, ``"thin:<k>"``,
        ``"summary"``) or a :class:`~repro.sim.recording.Recorder`
        instance. The recorder is restarted at the top of every run,
        so one loop serves repeated/chained runs.
    probe:
        Telemetry policy — a spec string (``"null"``, ``"counters"``,
        ``"trace[:path]"``) or a :class:`~repro.sim.telemetry.Probe`
        instance. When enabled, the kernel wraps each lifecycle phase
        (``play_round`` / ``observe`` / ``record`` / ``converge``) in a
        wall-time span; under the default null probe every
        instrumentation site reduces to one boolean check, so the run
        — records, RNG stream, convergence — is provably unchanged.
    """

    def __init__(
        self,
        driver: RoundDriver,
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        self.driver = driver
        self.recorder = make_recorder(recorder)
        self.probe = make_probe(probe)

    def run(self, max_rounds: int = 1000, reset: bool = True) -> SimulationResult:
        """Simulate up to *max_rounds* rounds (early exit on convergence)."""
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        driver = self.driver
        probe = self.probe
        traced = probe.enabled
        perf = time.perf_counter

        result = SimulationResult(balancer_name=driver.balancer.name)
        result.initial_summary = imbalance_summary(driver.observed_loads())
        start = perf()
        self.recorder.start()
        probe.start()
        base = driver.prepare(reset)
        state = RunState(r=base, end_round=base + max_rounds)
        while not state.done:
            if traced:
                t0 = perf()
            stats = driver.play_round(state.r)
            if traced:
                probe.span("play_round", t0, perf())
            self.observe_round(state, stats)

        driver.finish(state.r)
        result.converged_round = state.converged_at
        result.final_summary = imbalance_summary(driver.observed_loads())
        self.recorder.finalize(result)
        result.wall_time_s = perf() - start
        probe.finalize(result)
        return result

    def observe_round(self, state: RunState, stats: RoundStats) -> None:
        """Record round ``state.r``'s stats and run the convergence check.

        :meth:`run` calls this once per round, after the driver has
        played round ``state.r``; it advances ``state.r`` past it and
        flips ``state.done`` on convergence or round-budget exhaustion.
        """
        driver = self.driver
        crit = driver.criteria
        probe = self.probe
        traced = probe.enabled
        perf = time.perf_counter
        r = state.r
        t1 = t2 = t3 = 0.0

        if traced:
            t1 = perf()
        summ = imbalance_summary(driver.observed_loads())
        if traced:
            t2 = perf()
            probe.span("observe", t1, t2)
        self.recorder.observe(
            r,
            stats.applied,
            stats.work,
            stats.heat,
            summ["cov"],
            summ["spread"],
            summ["max"],
            summ["min"],
            driver.in_flight_now(),
            stats.blocked,
            stats.n_tasks,
            stats.asleep,
        )
        if traced:
            t3 = perf()
            probe.span("record", t2, t3)

        converged_now = False
        if driver.fluid_mode:
            if summ["spread"] <= crit.spread_tol and r + 1 >= crit.min_rounds:
                state.converged_at = r
                converged_now = True
        elif driver.dynamic is None:
            # Convergence detection (skipped under churn: there is
            # no quiescent state to converge to).
            idle = driver.balancer.idle()
            balanced_enough = (
                crit.spread_tol > 0 and summ["spread"] <= crit.spread_tol
            )
            if stats.applied == 0 and idle and driver.in_transit_count() == 0:
                state.quiet += 1
            else:
                state.quiet = 0
            if r + 1 >= crit.min_rounds and (
                state.quiet >= crit.quiet_rounds or (balanced_enough and idle)
            ):
                state.converged_at = (
                    r - state.quiet + 1 if state.quiet >= crit.quiet_rounds else r
                )
                converged_now = True
        if traced:
            probe.span("converge", t3, perf())
        state.r = r + 1
        state.done = converged_now or state.r >= state.end_round
