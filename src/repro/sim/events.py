"""The discrete-event asynchronous simulation engine (``engine="events"``).

:class:`EventSimulator` drops the synchronous-round assumption of
:class:`repro.sim.engine.Simulator`: time is continuous and every node
has its *own* clock. A node wakes on its own balancing cadence
(heterogeneous speed factors, per-wake jitter, optional straggler
slowdowns), observes the system through the same
:class:`~repro.interfaces.BalanceContext` snapshot, and issues the same
one-hop :class:`~repro.interfaces.Migration` orders — so every
registered :class:`~repro.interfaces.Balancer` runs unchanged on both
engines.

Like the synchronous engines, the event engine is a driver for the
shared :class:`~repro.sim.kernel.SimulationLoop`: one *epoch* of
continuous time is one kernel round, played by consuming pending
events in ``(time, priority, insertion)`` order up to the epoch-end
marker. Event types (ordered by a fixed priority at equal timestamps,
so the schedule is deterministic):

1. **epoch-begin** — link fault/repair transitions are realised
   (:class:`~repro.network.faults.FaultModel.advance`), once per epoch.
2. **task arrival** — an in-transit task lands on its destination
   (latency = load × e_ij / bandwidth, scaled by ``latency_scale``).
3. **churn** — workload arrivals/completions
   (:class:`~repro.workloads.dynamic.DynamicWorkload.step`).
4. **wake** — a *wave* of nodes whose clocks fire at this instant
   balances: one ``balancer.step`` call, whose orders go through the
   one order path every task engine shares
   (:meth:`~repro.sim.kernel.TaskStateMixin._apply_wave`). It checks,
   in order: asleep, dead task, wrong source, non-edge, fault, over
   capacity within the wave, and the epoch's link budget. The first
   and the last only fire once clocks desynchronise. Orders between
   two sleeping nodes are refused (async-oblivious balancers simply
   lose those decisions, the way a real node's plan for someone else's
   processors would). An order touching an awake endpoint survives:
   src awake is a push, dst awake a pull (work stealing's steals are
   sourced at the sleeping victim). An out-of-range endpoint is never
   looked up in the awake mask; it raises the same ``TopologyError``
   as on the synchronous engine. Link capacity is enforced per *time
   unit*, not per wave: a link whose epoch budget was spent by an
   earlier wave refuses further transfers as busy (counted in
   ``blocked``), preserving the paper's "a single load per link per
   time unit" under desynchronised clocks.
5. **epoch-end** — the kernel samples metrics through the run's
   recorder (full / thin / summary — see :mod:`repro.sim.recording`)
   and checks convergence.

Pending events live in the columnar stores of
:mod:`repro.sim.event_buffers`, not in per-event Python objects: a
:class:`WakeSchedule` (one next-wake slot per node; a same-instant wave
is one vectorised compare-and-gather) and an :class:`ArrivalBuffer`
(in-flight transfers as parallel columns). The epoch markers are
three local flags. ``tests/heap_events.py`` keeps the same schedule on
a tuple heap as a test oracle; ``tests/sim/test_events_fast_equivalence.py``
and its fuzz sibling hold the engine to it bit for bit — records, RNG
state, final loads, event counts — on every clock model (jitter,
stragglers, cadence, latency).

Results are sampled at *epoch* boundaries (default epoch length 1.0, one
epoch ⇔ one synchronous round), so they land in the existing
:class:`~repro.sim.results.SimulationResult` shape and every downstream
consumer — ``to_dict``/``from_dict``, the runner cache, ``analysis``,
``viz`` — works without modification.

**The correctness anchor**: with homogeneous unit clocks, zero transfer
latency and the default uniform cadence (= the epoch length), every
wake wave contains *all* nodes at integer times — the event schedule
degenerates to the synchronous protocol and :meth:`EventSimulator.run`
reproduces :meth:`Simulator.run` exactly (same seed ⇒ identical
per-round records). ``tests/sim/test_event_equivalence.py`` holds this
as a property, not a hope.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.interfaces import Balancer
from repro.network.faults import FaultModel
from repro.network.links import LinkAttributes
from repro.network.topology import Topology
from repro.rng import RngLike, derive
from repro.sim.engine import ConvergenceCriteria
from repro.sim.event_buffers import ArrivalBuffer, WakeSchedule
from repro.sim.kernel import RoundDriver, RoundStats, TaskStateMixin
from repro.sim.recording import RecorderSpec
from repro.sim.results import SimulationResult
from repro.sim.telemetry import ProbeSpec
from repro.tasks.resources import ResourceMap
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph
from repro.workloads.dynamic import DynamicWorkload

#: event priorities at equal timestamps — the deterministic tie-break
#: that makes the degenerate schedule identical to a synchronous round
#: (faults realised, then deliveries, then churn, then balancing, then
#: sampling).
_EPOCH_BEGIN, _ARRIVAL, _CHURN, _WAKE, _EPOCH_END = range(5)

#: spawn key for the clock-jitter stream (kept off the balancer's
#: context RNG so wake scheduling never perturbs balancing decisions).
_CLOCK_STREAM = 9001


class EventSimulator(TaskStateMixin, RoundDriver):
    """Asynchronous, continuous-time simulation of the same protocol.

    Parameters mirror :class:`repro.sim.engine.Simulator` where the
    concept carries over; the additions are the clock model.

    Parameters
    ----------
    topology, system, balancer, links, fault_model, task_graph,
    resources, dynamic, link_capacity, c1, e0, seed, criteria,
    node_speeds, recorder, probe:
        As in :class:`~repro.sim.engine.Simulator`. ``node_speeds`` are
        *processing* speeds: they define the effective metric surface
        ``h_i / s_i`` and, by default, also drive each node's wake rate
        (a slow processor balances less often).
    transfer_latency:
        ``0`` (default) = instantaneous; a positive ``float`` is a
        constant in-flight time per hop (in simulation-time units);
        ``"size"`` computes ``load · distance / bandwidth ·
        latency_scale`` per hop — the continuous-time version of the
        synchronous engine's size-proportional latency.
    latency_scale:
        Multiplier for ``"size"`` latencies (1.0 = one time unit per
        unit of load over a unit link).
    cadence:
        Base balancing period in simulation-time units. A node with
        clock speed ``c_i`` wakes every ``cadence / c_i`` time units.
        The default (1.0 = the epoch length) is the degenerate,
        synchronous-equivalent setting.
    clock_speeds:
        Optional per-node wake-rate factors. Defaults to
        ``node_speeds`` when given, else uniform 1.0.
    wake_jitter:
        Fractional jitter on every wake interval: each period is drawn
        as ``cadence / c_i · U(1−j, 1+j)``. Jitter draws come from a
        dedicated sub-stream of *seed*, so they never perturb the
        balancer's context RNG.
    stragglers:
        Optional mapping node → slowdown factor ≥ 1 applied on top of
        the node's clock speed (a factor of 4 makes the node balance
        4× less often). Keys may be ints or strings (JSON round-trip).
    epoch:
        Sampling period: metrics are recorded and faults/churn realised
        every *epoch* time units; one epoch is one "round" in the
        recorded result.

    Attributes
    ----------
    events_processed:
        Events popped during the last :meth:`run` (the events/sec
        numerator of ``benchmarks/bench_perf.py``).
    wakes_per_node:
        Per-node count of balancing wakes during the last :meth:`run`.
    """

    def __init__(
        self,
        topology: Topology,
        system: TaskSystem,
        balancer: Balancer,
        links: Optional[LinkAttributes] = None,
        fault_model: Optional[FaultModel] = None,
        task_graph: Optional[TaskGraph] = None,
        resources: Optional[ResourceMap] = None,
        dynamic: Optional[DynamicWorkload] = None,
        link_capacity: int = 1,
        transfer_latency: Union[float, str] = 0.0,
        latency_scale: float = 1.0,
        c1: float = 1.0,
        e0: float = 1.0,
        seed: RngLike = None,
        criteria: ConvergenceCriteria = ConvergenceCriteria(),
        node_speeds: Optional[np.ndarray] = None,
        cadence: float = 1.0,
        clock_speeds: Optional[np.ndarray] = None,
        wake_jitter: float = 0.0,
        stragglers: Optional[Mapping] = None,
        epoch: float = 1.0,
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        if system.topology is not topology:
            raise ConfigurationError("task system was built for a different topology")
        if link_capacity < 1:
            raise ConfigurationError(f"link_capacity must be >= 1, got {link_capacity}")
        if isinstance(transfer_latency, str):
            if transfer_latency != "size":
                raise ConfigurationError(
                    f"transfer_latency must be a float >= 0 or 'size', got "
                    f"{transfer_latency!r}"
                )
        elif not (math.isfinite(transfer_latency) and transfer_latency >= 0):
            raise ConfigurationError(
                f"transfer_latency must be >= 0 and finite, got {transfer_latency}"
            )
        if not (math.isfinite(latency_scale) and latency_scale >= 0):
            raise ConfigurationError(
                f"latency_scale must be >= 0 and finite, got {latency_scale}"
            )
        if not (math.isfinite(cadence) and cadence > 0):
            raise ConfigurationError(f"cadence must be positive and finite, got {cadence}")
        if not (math.isfinite(epoch) and epoch > 0):
            raise ConfigurationError(f"epoch must be positive and finite, got {epoch}")
        if not 0 <= wake_jitter < 1:
            raise ConfigurationError(
                f"wake_jitter must be in [0, 1), got {wake_jitter}"
            )
        n = topology.n_nodes
        node_speeds = self._checked_node_speeds(node_speeds, n)
        if clock_speeds is None:
            clock_speeds = (
                node_speeds.copy() if node_speeds is not None else np.ones(n)
            )
        else:
            clock_speeds = np.asarray(clock_speeds, dtype=np.float64).copy()
            if clock_speeds.shape != (n,):
                raise ConfigurationError(
                    f"clock_speeds must have shape ({n},), got {clock_speeds.shape}"
                )
            if not (np.isfinite(clock_speeds) & (clock_speeds > 0)).all():
                raise ConfigurationError("clock speeds must be positive and finite")
        if stragglers:
            for node, factor in stragglers.items():
                node = int(node)  # JSON object keys arrive as strings
                if not 0 <= node < n:
                    raise ConfigurationError(
                        f"straggler node {node} out of range [0, {n})"
                    )
                factor = float(factor)
                if not (math.isfinite(factor) and factor >= 1):
                    raise ConfigurationError(
                        f"straggler slowdown must be >= 1 and finite, got "
                        f"{factor} for node {node}"
                    )
                clock_speeds[node] /= factor

        self._init_task_engine(
            topology=topology,
            system=system,
            balancer=balancer,
            links=links,
            fault_model=fault_model,
            task_graph=task_graph,
            resources=resources,
            dynamic=dynamic,
            link_capacity=link_capacity,
            transfer_latency=transfer_latency,
            c1=c1,
            e0=e0,
            seed=seed,
            criteria=criteria,
            node_speeds=node_speeds,
            recorder=recorder,
            probe=probe,
        )
        self.latency_scale = float(latency_scale)
        self.cadence = float(cadence)
        self.clock_speeds = clock_speeds
        self.wake_jitter = float(wake_jitter)
        self.epoch = float(epoch)
        # Jitter draws must not touch the balancer's context stream: a
        # Generator seed is *spawned* (advances only its spawn counter,
        # never the bit stream the balancer consumes); plain seeds get
        # an independent derived stream.
        if self.wake_jitter == 0:
            self._clock_rng = None
        elif isinstance(seed, np.random.Generator):
            self._clock_rng = seed.spawn(1)[0]
        else:
            self._clock_rng = derive(seed, _CLOCK_STREAM)
        self._periods = self.cadence / self.clock_speeds

        self.events_processed = 0
        self.wakes_per_node = np.zeros(n, dtype=np.int64)
        self.now = 0.0

    # ------------------------------------------------------------------ #

    def _latency_of(self, load: float, eid: int) -> float:
        if self.transfer_latency == 0:
            return 0.0
        if self.transfer_latency == "size":
            bw = float(self.links.bandwidth[eid])
            d = float(self.links.distance[eid])
            return load * d / bw * self.latency_scale
        return float(self.transfer_latency)

    def _send(self, when: float, tid: int, dst: int) -> None:
        self._arrivals.push(when, tid, dst)

    def _next_period(self, node: int) -> float:
        base = self._periods[node]
        if self._clock_rng is None:
            return base
        j = self.wake_jitter
        return base * float(self._clock_rng.uniform(1.0 - j, 1.0 + j))

    # ------------------------------------------------------------------ #

    def _wave(self, t: float, nodes: list[int], up_mask: np.ndarray) -> None:
        """One balancing wave: every node whose clock fired at *t*."""
        probe = self.probe
        traced = probe.enabled
        if traced:
            t0 = time.perf_counter()
            applied0 = self._ep_applied
            blocked0 = self._ep_blocked
            asleep0 = self._ep_asleep
        self.wakes_per_node[nodes] += 1
        awake: Optional[np.ndarray]
        if len(nodes) == self.topology.n_nodes:
            awake = None  # full wave — the degenerate (synchronous) case
        else:
            awake = np.zeros(self.topology.n_nodes, dtype=bool)
            awake[nodes] = True
        ctx = self._context(self._epoch_index, up_mask, awake)
        migrations = self.balancer.step(ctx)
        self._apply_wave(migrations, up_mask, awake, t)
        if traced:
            probe.span("wake_wave", t0, time.perf_counter())
            probe.incr("engine.waves")
            probe.incr("engine.wake_nodes", len(nodes))
            probe.incr("engine.transfers_applied", self._ep_applied - applied0)
            probe.incr("engine.transfers_blocked", self._ep_blocked - blocked0)
            probe.incr("engine.transfers_asleep", self._ep_asleep - asleep0)

    # ------------------------- kernel driver hooks -------------------- #

    def prepare(self, reset: bool) -> int:
        """Full reset (the event engine does not support continuation)."""
        self.balancer.reset(self._context(0, self._all_up))
        self.events_processed = 0
        self.wakes_per_node[:] = 0
        self._reset_queues()
        self._epoch_index = 0
        self._reset_epoch()
        self._up_mask = self._all_up
        return 0

    def _reset_queues(self) -> None:
        """Land anything still on the wire from a previous run, in
        arrival order, so a fresh run starts with every task on a node;
        then start empty stores."""
        arrivals = getattr(self, "_arrivals", None)
        if arrivals is not None:
            for tid, dest in arrivals.drain_in_order():
                self._land(tid, dest)
        self._arrivals = ArrivalBuffer()
        self._wakes = WakeSchedule(self.topology.n_nodes)

    def play_round(self, round_index: int) -> RoundStats:
        """Consume pending events through epoch *round_index*.

        One epoch spans ``epoch`` simulation-time units. Each iteration
        takes the lexicographically smallest ``(time, priority)`` event
        among the pending wakes, the pending arrivals and this epoch's
        begin/churn/end markers. Priorities are distinct per event
        class, so the minimum is unambiguous; the stores' insertion
        ranks break ties inside a class. Returns when the epoch-end
        marker is reached, handing the epoch's accumulated counters to
        the kernel.
        """
        when = round_index * self.epoch
        if round_index == 0:
            self._wakes.schedule_all(0.0)
        events0 = self.events_processed
        wakes = self._wakes
        arrivals = self._arrivals
        begin_pending = True
        churn_pending = self.dynamic is not None

        while True:
            t, priority = when, _EPOCH_END
            if churn_pending:
                t, priority = when, _CHURN
            ta = arrivals.peek_time()
            if (ta, _ARRIVAL) < (t, priority):
                t, priority = ta, _ARRIVAL
            if begin_pending and (when, _EPOCH_BEGIN) < (t, priority):
                t, priority = when, _EPOCH_BEGIN
            tw = wakes.peek_time()
            if (tw, _WAKE) < (t, priority):
                t, priority = tw, _WAKE

            self.now = t

            if priority == _WAKE:
                # Every clock that fires at this exact instant is one
                # wave (the degenerate config batches *all* nodes,
                # reproducing the synchronous round).
                wave = wakes.pop_wave(t)
                nodes = [int(node) for node in wave]
                self.events_processed += len(nodes)
                self._wave(t, nodes, self._up_mask)
                if self._clock_rng is None:
                    wakes.schedule(wave, t + self._periods[wave])
                else:
                    # One jitter draw per rescheduled wake, in wave order.
                    jittered = np.empty(len(nodes), dtype=np.float64)
                    for k, node in enumerate(nodes):
                        jittered[k] = t + self._next_period(node)
                    wakes.schedule(wave, jittered)

            elif priority == _ARRIVAL:
                self.events_processed += 1
                self._land(*arrivals.pop_earliest())

            elif priority == _EPOCH_BEGIN:
                self.events_processed += 1
                begin_pending = False
                self._epoch_index = round_index
                if self.fault_model is not None:
                    self.fault_model.advance(round_index)
                    self._up_mask = self.fault_model.up_mask()

            elif priority == _CHURN:
                self.events_processed += 1
                churn_pending = False
                self._churn()

            else:  # _EPOCH_END — the kernel's observation point
                self.events_processed += 1
                if self.probe.enabled:
                    self.probe.incr(
                        "engine.buffer_pops", self.events_processed - events0
                    )
                return self._epoch_stats()

    # ------------------------------------------------------------------ #

    def run(self, max_rounds: int = 1000) -> SimulationResult:
        """Simulate up to *max_rounds* epochs (early exit on convergence).

        One epoch spans ``epoch`` simulation-time units and produces one
        recorded round, so ``max_rounds`` plays the same budget role as
        in the synchronous engine.
        """
        return self._loop.run(max_rounds)


class EventFastSimulator(EventSimulator):
    """The former name of the ``events`` engine, kept only because
    ``perfbench/tracing.py`` lists its ``play_round`` among the callables
    it wraps. Not exported; build :class:`EventSimulator`.

    ``play_round`` is restated rather than inherited so that the class
    ``__dict__`` holds it: a tracer that wraps both classes' attribute
    then wraps two distinct slots, and an :class:`EventSimulator` run
    records one span per epoch, not two.
    """

    play_round = EventSimulator.play_round
