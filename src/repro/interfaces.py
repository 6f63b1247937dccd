"""Shared contracts between balancers and the simulation engine.

The engine drives any load balancer through a narrow protocol:

* Each synchronous round, the engine builds a :class:`BalanceContext`
  snapshot (topology, task system, link costs, current link availability,
  round index, RNG) and calls :meth:`Balancer.step`.
* The balancer returns a list of :class:`Migration` orders — *one-hop*
  task moves, matching the paper's model where a load traverses one link
  per time unit.
* The engine validates and applies them (it never silently repairs or
  drops an order: an invalid order is a balancer bug and raises
  :class:`~repro.exceptions.SimulationError`).

Fluid-mode balancers (diffusion and friends, where load is an infinitely
divisible quantity) implement :class:`FluidBalancer` instead and return a
signed per-edge *flow* vector.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.network.links import LinkAttributes
    from repro.network.topology import Topology
    from repro.sim.telemetry import Probe
    from repro.tasks.resources import ResourceMap
    from repro.tasks.task import TaskSystem
    from repro.tasks.task_graph import TaskGraph


class Migration(NamedTuple):
    """A single one-hop task move ordered by a balancer.

    An immutable named tuple: a round plans thousands of these, and a
    tuple is the cheapest immutable record to build. Setting a field
    raises :class:`AttributeError`.

    Attributes
    ----------
    task_id:
        The task to move.
    src, dst:
        Current node and destination node; must be adjacent, and the task
        must reside on *src* when the order is applied.
    heat:
        Energy dissipated by this hop (the paper's friction heat, the
        analogy of network traffic). Balancers that do not model heat
        leave 0 and the engine falls back to ``load × e_ij``.
    """

    task_id: int
    src: int
    dst: int
    heat: float = 0.0


@dataclass
class BalanceContext:
    """Everything a balancer may look at during one round.

    Attributes
    ----------
    topology:
        The network.
    system:
        The task system (loads, placements, per-node totals).
    links:
        Link attribute arrays (BW/D/F).
    link_costs:
        Per-edge ``e_ij`` (paper §4.2), indexed by ``Topology.edge_id``.
    up_mask:
        Per-edge availability this round (False = faulted).
    round_index:
        Zero-based synchronous round counter (the arbiter's clock).
    rng:
        Seeded generator for stochastic balancers.
    task_graph:
        Dependency matrix ``T`` or None.
    resources:
        Affinity matrix ``R`` or None.
    node_speeds:
        Optional per-node processing speeds ``s_i > 0``. When present
        the balance target is capacity-proportional (``h_i ∝ s_i``) and
        speed-aware balancers should work on the *effective* surface
        ``h_i / s_i``. None means homogeneous processors.
    awake:
        Per-node wake mask for this balancing wave, or None when every
        node is participating (always None under the synchronous
        engine). The asynchronous event engine
        (:class:`repro.sim.EventSimulator`) refuses orders
        between two sleeping nodes (an awake src is a push, an awake
        dst a pull), so async-aware balancers can consult this mask to
        avoid planning moves that will be dropped; async-oblivious
        balancers may ignore it.
    probe:
        The engine's telemetry sink (:class:`~repro.sim.telemetry.
        Probe`) or None. Balancers may emit structured counters into it
        — decisions evaluated, screen hits, RNG draws — but must gate
        every emission on ``probe.enabled`` (and must never let the
        probe change a decision or the RNG stream).
    """

    topology: "Topology"
    system: "TaskSystem"
    links: "LinkAttributes"
    link_costs: np.ndarray
    up_mask: np.ndarray
    round_index: int
    rng: np.random.Generator
    task_graph: Optional["TaskGraph"] = None
    resources: Optional["ResourceMap"] = None
    node_speeds: Optional[np.ndarray] = None
    awake: Optional[np.ndarray] = None
    probe: Optional["Probe"] = None


class Balancer(abc.ABC):
    """Task-granular load balancer (the paper's setting)."""

    #: short identifier used in benchmark tables
    name: str = "balancer"

    def reset(self, ctx: BalanceContext) -> None:
        """Called once before round 0; clear any internal state."""

    @abc.abstractmethod
    def step(self, ctx: BalanceContext) -> list[Migration]:
        """Plan this round's one-hop migrations.

        Implementations must respect ``ctx.up_mask`` (no orders over
        faulted links) and the engine's link capacity (at most
        ``capacity`` tasks per link per round; the engine's default of 1
        matches the paper's "a single load per link per time unit").
        """

    def idle(self) -> bool:
        """True when the balancer has no in-flight state left.

        The engine uses this together with "no migrations" to detect
        convergence; balancers with in-motion particles must return
        False until everything settles.
        """
        return True


class FluidBalancer(abc.ABC):
    """Divisible-load balancer operating directly on the load vector."""

    name: str = "fluid"

    def reset(self, ctx: BalanceContext) -> None:
        """Called once before round 0; clear any internal state."""

    @abc.abstractmethod
    def fluid_step(self, h: np.ndarray, ctx: BalanceContext) -> np.ndarray:
        """Return the signed per-edge flow for this round.

        ``flow[k] > 0`` moves that much load from ``edges[k, 0]`` to
        ``edges[k, 1]``; negative flows move the other way. The engine
        applies ``h[u] -= flow``, ``h[v] += flow`` and accounts traffic
        as ``Σ |flow_k| · e_k``. Implementations must not mutate *h*.
        """
