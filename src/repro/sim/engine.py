"""The synchronous-round simulators.

:class:`Simulator` drives task-granular balancers (PPLB and the discrete
baselines); :class:`FluidSimulator` drives divisible-load balancers
(diffusion-family theory checks). Both are thin *drivers* for the shared
:class:`~repro.sim.kernel.SimulationLoop`: they supply the
engine-specific round body (fault realisation, delivery, churn, balancer
step, order application) while the kernel owns the lifecycle —
observation, recording (pluggable, see :mod:`repro.sim.recording`) and
convergence detection. Both:

* realise link faults at round start (balancers then see the same
  ``up_mask`` the engine enforces),
* validate every order defensively (a bad order is a balancer bug and
  raises :class:`~repro.exceptions.SimulationError` — the engine never
  silently repairs).

Convergence (task mode): the system is converged when, for
``quiet_rounds`` consecutive rounds, no migrations were applied *and*
the balancer reports itself idle (no in-flight particles). The recorded
``converged_round`` is the first round of that quiet window — the round
after which nothing ever changed. Fluid mode instead converges when the
max−min spread drops below ``spread_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import BalanceContext, Balancer, FluidBalancer, Migration
from repro.network.faults import FaultModel
from repro.network.links import LinkAttributes, link_costs
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng
from repro.sim.kernel import RoundDriver, RoundStats, SimulationLoop, TaskStateMixin
from repro.sim.recording import RecorderSpec
from repro.sim.results import SimulationResult
from repro.sim.telemetry import ProbeSpec, make_probe
from repro.tasks.resources import ResourceMap
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph
from repro.workloads.dynamic import DynamicWorkload


@dataclass(frozen=True)
class ConvergenceCriteria:
    """When to stop early.

    Attributes
    ----------
    quiet_rounds:
        Consecutive migration-free, balancer-idle rounds that count as
        converged (task mode).
    spread_tol:
        Max−min spread threshold (fluid mode; also used by task mode as
        an *additional* early-exit when > 0 and the balancer is idle).
    min_rounds:
        Never declare convergence before this many rounds.
    """

    quiet_rounds: int = 5
    spread_tol: float = 0.0
    min_rounds: int = 1

    def __post_init__(self) -> None:
        if self.quiet_rounds < 1:
            raise ConfigurationError(f"quiet_rounds must be >= 1, got {self.quiet_rounds}")
        if self.spread_tol < 0:
            raise ConfigurationError(f"spread_tol must be >= 0, got {self.spread_tol}")
        if self.min_rounds < 0:
            raise ConfigurationError(f"min_rounds must be >= 0, got {self.min_rounds}")


class Simulator(TaskStateMixin, RoundDriver):
    """Task-granular synchronous simulation (the paper's machine model).

    Parameters
    ----------
    topology, system:
        The network and its (pre-populated) task system.
    balancer:
        Any :class:`~repro.interfaces.Balancer`.
    links:
        Link attributes; defaults to uniform unit links.
    fault_model:
        Optional fault realisation (defaults to fault-free).
    task_graph, resources:
        Optional ``T``/``R`` passed through to the balancer context.
    dynamic:
        Optional workload churn applied at the start of each round.
    link_capacity:
        Tasks per link per round (paper: 1).
    transfer_latency:
        Rounds a migration spends on the wire before the task lands.
        0 (default) = instantaneous (the classical model); an ``int``
        applies uniformly; ``"size"`` computes ``ceil(load·d/bw)`` per
        hop — the paper's §1 concern that migration "means the transfer
        of a considerable amount of data" made concrete. While in
        transit the task's load is on no node (the hill already shrank,
        the valley hasn't filled).
    c1, e0:
        Link-cost constants (see :func:`repro.network.links.link_costs`).
    seed:
        Seed for the context RNG handed to stochastic balancers.
    criteria:
        Convergence criteria.
    track_journeys:
        When True, record per-task journeys: hop counts and origin →
        settle displacement (used by the locality experiments).
    node_speeds:
        Optional per-node processing speeds ``s_i > 0``. The balance
        target becomes capacity-proportional: all recorded imbalance
        metrics are computed on the *effective* loads ``h_i / s_i``
        (CoV 0 ⟺ every node holds load proportional to its speed), and
        the speeds are exposed to balancers through the context.
    recorder:
        Recording policy: ``"full"`` (every round, the default),
        ``"thin:<k>"`` (every k-th round plus the last, exact running
        totals) or ``"summary"`` (O(1) running aggregates, no per-round
        history) — or a :class:`~repro.sim.recording.Recorder`
        instance. See :mod:`repro.sim.recording`.
    probe:
        Telemetry policy: ``"null"`` (the default — off, provably zero
        behavior change), ``"counters"`` (aggregate counters/phase
        times on ``result.telemetry``) or ``"trace[:path]"`` (Chrome
        trace-event JSON per run) — or a
        :class:`~repro.sim.telemetry.Probe` instance. See
        :mod:`repro.sim.telemetry`.
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
        transfer_latency: int | str = 0,
        c1: float = 1.0,
        e0: float = 1.0,
        seed: RngLike = None,
        criteria: ConvergenceCriteria = ConvergenceCriteria(),
        track_journeys: bool = False,
        node_speeds: Optional[np.ndarray] = None,
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        if system.topology is not topology:
            raise ConfigurationError("task system was built for a different topology")
        node_speeds = self._checked_node_speeds(node_speeds, topology.n_nodes)
        if link_capacity < 1:
            raise ConfigurationError(f"link_capacity must be >= 1, got {link_capacity}")
        if isinstance(transfer_latency, str):
            if transfer_latency != "size":
                raise ConfigurationError(
                    f"transfer_latency must be an int >= 0 or 'size', got "
                    f"{transfer_latency!r}"
                )
        elif not (math.isfinite(transfer_latency) and transfer_latency >= 0):
            raise ConfigurationError(
                f"transfer_latency must be >= 0 and finite, got {transfer_latency}"
            )
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
        self.track_journeys = track_journeys
        # wire: arrival round -> list of (task id, destination node)
        self._wire: dict[int, list[tuple[int, int]]] = {}
        # journey tracking: task id -> (origin node, hops so far)
        self.task_hops: dict[int, int] = {}
        self.task_origin: dict[int, int] = {}
        self._rounds_done = 0  # global round counter across chained runs

    # ------------------------------------------------------------------ #

    def _latency_of(self, load: float, eid: int) -> int:
        if self.transfer_latency == 0:
            return 0
        if self.transfer_latency == "size":
            bw = float(self.links.bandwidth[eid])
            d = float(self.links.distance[eid])
            return max(int(np.ceil(load * d / bw)), 1)
        return int(self.transfer_latency)

    def _send(self, when: int, tid: int, dst: int) -> None:
        self._wire.setdefault(when, []).append((tid, dst))

    def _deliver_due(self, round_index: int) -> int:
        """Land tasks whose transit completes at *round_index*."""
        due = self._wire.pop(round_index, [])
        for tid, dest in due:
            self._land(tid, dest)
        return len(due)

    # ------------------------- kernel driver hooks -------------------- #

    def prepare(self, reset: bool) -> int:
        """Reset (or continue) run state; return the starting round."""
        self._reset_epoch()
        if reset or self._rounds_done == 0:
            ctx0 = self._context(0, self._all_up)
            self.balancer.reset(ctx0)
            self._rounds_done = 0
            self.task_hops.clear()
            self.task_origin.clear()
            # Land anything still on the wire from a previous run so the
            # fresh run starts with every task on a node.
            for due in sorted(self._wire):
                self._deliver_due(due)
            self._wire.clear()
        return self._rounds_done

    def round_apply(
        self, migrations: list[Migration], up: np.ndarray, round_index: int
    ) -> RoundStats:
        """Post-step round work: apply the orders as the epoch's one full
        wave, package the stats."""
        self._apply_wave(migrations, up, None, round_index)
        stats = self._epoch_stats()
        if self.probe.enabled:
            self.probe.incr("engine.transfers_applied", stats.applied)
            self.probe.incr("engine.transfers_blocked", stats.blocked)
        return stats

    def play_round(self, round_index: int) -> RoundStats:
        """One synchronous round: faults → deliver → churn → step → apply."""
        if self.fault_model is not None:
            self.fault_model.advance(round_index)
            up = self.fault_model.up_mask()
        else:
            up = self._all_up

        self._deliver_due(round_index)  # in-transit tasks landing this round

        if self.dynamic is not None:
            self._churn()
        ctx = self._context(round_index, up)
        migrations = self.balancer.step(ctx)
        return self.round_apply(migrations, up, round_index)

    def finish(self, next_round: int) -> None:
        self._rounds_done = next_round

    # ------------------------------------------------------------------ #

    def run(self, max_rounds: int = 1000, reset: bool = True) -> SimulationResult:
        """Simulate up to *max_rounds* rounds (early exit on convergence).

        With ``reset=False`` the run *continues* a previous one: the
        balancer keeps its in-flight state, the round counter (and thus
        the arbiter's annealing clock) keeps advancing, and the returned
        result covers only the new rounds. Used to photograph the load
        surface mid-flight (``examples/surface_watch.py``).
        """
        return self._loop.run(max_rounds, reset=reset)

    # ------------------------------------------------------------------ #

    def journey_displacements(self) -> dict[int, int]:
        """Hop distance from each tracked task's origin to its final node.

        Requires ``track_journeys=True``. The *displacement* (shortest-
        path hops between endpoints) is bounded by the hop count and is
        the quantity Corollary 3 bounds via ``h*/µk``.
        """
        if not self.track_journeys:
            raise ConfigurationError("journey tracking was not enabled for this run")
        hd = self.topology.hop_distances
        out: dict[int, int] = {}
        for tid, origin in self.task_origin.items():
            if self.system.is_alive(tid):
                out[tid] = int(hd[origin, self.system.location_of(tid)])
        return out


class FluidSimulator(RoundDriver):
    """Divisible-load simulation for :class:`FluidBalancer` algorithms.

    Owns the load vector ``h`` directly (no tasks). Used for the theory
    validations: diffusion convergence, optimal-α comparisons, and the
    dimension-exchange one-sweep hypercube result. Runs through the
    same :class:`~repro.sim.kernel.SimulationLoop` as the task engines
    (fluid mode: spread-tolerance convergence), so it accepts the same
    ``recorder`` policies.
    """

    fluid_mode = True

    def __init__(
        self,
        topology: Topology,
        initial_loads: np.ndarray,
        balancer: FluidBalancer,
        links: Optional[LinkAttributes] = None,
        c1: float = 1.0,
        e0: float = 1.0,
        seed: RngLike = None,
        criteria: ConvergenceCriteria = ConvergenceCriteria(spread_tol=1e-6),
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        h = np.asarray(initial_loads, dtype=np.float64).copy()
        if h.shape != (topology.n_nodes,):
            raise ConfigurationError(
                f"initial loads must have shape ({topology.n_nodes},), got {h.shape}"
            )
        if not (np.isfinite(h) & (h >= 0)).all():
            raise ConfigurationError("initial loads must be non-negative and finite")
        self.topology = topology
        self.h = h
        self.balancer = balancer
        self.links = links if links is not None else LinkAttributes.uniform(topology)
        self.link_costs = link_costs(self.links, c1=c1, e0=e0)
        self.rng = ensure_rng(seed)
        self.criteria = criteria
        self.dynamic = None
        self._all_up = np.ones(topology.n_edges, dtype=bool)
        self.probe = make_probe(probe)
        self._loop = SimulationLoop(self, recorder=recorder, probe=self.probe)

    def _context(self, round_index: int) -> BalanceContext:
        # Fluid mode has no TaskSystem; balancers must not touch ctx.system.
        return BalanceContext(
            topology=self.topology,
            system=None,  # type: ignore[arg-type]
            links=self.links,
            link_costs=self.link_costs,
            up_mask=self._all_up,
            round_index=round_index,
            rng=self.rng,
            probe=self.probe if self.probe.enabled else None,
        )

    # ------------------------- kernel driver hooks -------------------- #

    def prepare(self, reset: bool) -> int:
        self.balancer.reset(self._context(0))
        return 0

    def play_round(self, round_index: int) -> RoundStats:
        """One fluid step: ask for flows, apply them, account traffic."""
        ctx = self._context(round_index)
        flow = np.asarray(self.balancer.fluid_step(self.h, ctx), dtype=np.float64)
        if flow.shape != (self.topology.n_edges,):
            raise SimulationError(
                f"fluid balancer returned flow of shape {flow.shape}, "
                f"expected ({self.topology.n_edges},)"
            )
        e = self.topology.edges
        np.subtract.at(self.h, e[:, 0], flow)
        np.add.at(self.h, e[:, 1], flow)
        if (self.h < -1e-9).any():
            raise SimulationError(
                "fluid step drove a node's load negative — flow exceeds supply"
            )
        self.h = np.maximum(self.h, 0.0)
        return RoundStats(
            applied=int((np.abs(flow) > 0).sum()),
            work=float(np.abs(flow) @ self.link_costs),
        )

    def observed_loads(self) -> np.ndarray:
        return self.h

    def in_flight_now(self) -> int:
        # Fluid balancers have no in-flight particles (and no idle()).
        return 0

    # ------------------------------------------------------------------ #

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Iterate fluid steps until the spread tolerance or *max_rounds*."""
        return self._loop.run(max_rounds)
