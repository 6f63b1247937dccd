"""Static and kinetic friction from task/resource dependencies (§4.2).

The paper defines::

    µs(l_{j,i}, v_j) ∝ Σ_{k, l≠0} T_{...}     (dependency to co-located tasks)
    µs(l_{j,i}, v_j) ∝ R_{j,i}                (dependency to node resources)
    µk ∝ µs                                   ("interestingly also true in
                                               the physical world")

Interpretation implemented here (documented substitution — the paper's
indices are notational rather than operational): for task *k* residing on
node *i*,

    µs(k, i) = mu_s_base
             + w_dependency          · Σ_{x ≠ k alive, loc(x) = i}     T[k, x]
             + w_dependency_neighbor · Σ_{x alive, loc(x) ∈ N(i)}      T[k, x]
             + w_resource            · R[k, i]

    µk(k, i) = mu_k_base + kappa · µs(k, i)

Additionally, Table 1 defines µs as "the degree of participation of a
node in the load balancing": a node may be more or less willing to give
up work at all. This is modelled as a per-node participation level
``p_i ∈ (0, 1]`` that divides into the static friction —

    µs(k, i) ← µs(k, i) / p_i

so ``p_i = 1`` is a fully participating node, ``p_i = 0.5`` doubles the
gradient needed to pull work off node *i*, and ``p_i → 0`` freezes its
tasks entirely. Participation is a *sending-side* property (the paper
gives no receive-side rule); µk inherits it through ``kappa``.

Effects (and what experiment E7 measures): a task whose communication
partners (or pinned resources) are local gets a higher ``µs`` — a steeper
gradient is needed to tear it away — and a proportionally higher ``µk``,
so if it does migrate, the heat cost per hop is higher and it settles
sooner, staying near its partners.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import PPLBConfig
from repro.exceptions import ConfigurationError
from repro.network.topology import Topology
from repro.tasks.resources import ResourceMap
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph


class FrictionModel:
    """Computes ``µs``/``µk`` per (task, node).

    Parameters
    ----------
    config:
        Source of the base coefficients and weights.
    task_graph, resources:
        The ``T`` and ``R`` structures; either may be None, dropping the
        corresponding term (and its cost).
    participation:
        Optional per-node participation levels ``p_i ∈ (0, 1]`` (Table 1:
        "degree of participation of a node"); divides into µs at that
        node. None means every node participates fully.
    """

    def __init__(
        self,
        config: PPLBConfig,
        task_graph: Optional[TaskGraph] = None,
        resources: Optional[ResourceMap] = None,
        participation: Optional[np.ndarray] = None,
    ):
        self.config = config
        self.task_graph = task_graph
        self.resources = resources
        if participation is not None:
            participation = np.asarray(participation, dtype=np.float64)
            if participation.ndim != 1:
                raise ConfigurationError(
                    f"participation must be a 1-D per-node array, got shape "
                    f"{participation.shape}"
                )
            if ((participation <= 0) | (participation > 1)).any():
                raise ConfigurationError("participation levels must lie in (0, 1]")
        self.participation = participation
        # Fast path: with no dependency structure (or zero weights) µs/µk
        # are constants; skip the partner scan entirely.
        self._needs_t = task_graph is not None and (
            config.w_dependency > 0 or config.w_dependency_neighbor > 0
        )
        self._needs_r = resources is not None and config.w_resource > 0

    @property
    def uniform(self) -> bool:
        """True when µs/µk are the same constants for every (task, node).

        Holds whenever no dependency/resource term contributes and no
        participation levels are set: then ``µs = mu_s_base`` and
        ``µk = mu_k_base + kappa·mu_s_base`` exactly. The vectorised
        balancer path uses this to lift friction out of its batch
        expressions; note that µs is always ≥ ``mu_s_base`` regardless
        (all weights are non-negative and participation only scales up),
        which is what the fast-path screen's bound relies on.
        """
        return not self._needs_t and not self._needs_r and self.participation is None

    def uniform_values(self) -> tuple[float, float, float]:
        """``(µs, µk)`` as :meth:`both` returns them and µk as :meth:`mu_k`
        returns it, for a :attr:`uniform` model.

        Those values name no task or node, so the balancer evaluates
        them once per step; they come from the very methods it would
        otherwise call per decision, so they are bit-identical.
        """
        if not self.uniform:
            raise ConfigurationError("friction depends on the task and node")
        mu_s, mu_k = self.both(None, None, -1, -1)
        return mu_s, mu_k, self.mu_k(None, None, -1, -1)

    def _participation_scale(self, node: int) -> float:
        if self.participation is None:
            return 1.0
        if node >= self.participation.shape[0]:
            raise ConfigurationError(
                f"participation array covers {self.participation.shape[0]} nodes; "
                f"node {node} queried"
            )
        return 1.0 / float(self.participation[node])

    def dependency_pull(self, system: TaskSystem, topology: Topology,
                        tid: int, node: int) -> tuple[float, float]:
        """(co-located, neighboring) dependency weight sums for *tid* at *node*."""
        if self.task_graph is None:
            return 0.0, 0.0
        ids, ws = self.task_graph.partners(tid)
        if ids.shape[0] == 0:
            return 0.0, 0.0
        local = 0.0
        nearby = 0.0
        nbrs = set(int(x) for x in topology.neighbors(node))
        for x, w in zip(ids, ws):
            x = int(x)
            if not system.is_alive(x):
                continue
            loc = system.location_of(x)
            if loc == node:
                local += w
            elif loc in nbrs:
                nearby += w
        return local, nearby

    def mu_s(self, system: TaskSystem, topology: Topology, tid: int, node: int) -> float:
        """Static friction of task *tid* at *node* (see module docstring)."""
        c = self.config
        mu = c.mu_s_base
        if self._needs_t:
            local, nearby = self.dependency_pull(system, topology, tid, node)
            mu += c.w_dependency * local + c.w_dependency_neighbor * nearby
        if self._needs_r:
            mu += c.w_resource * self.resources.affinity(tid, node)
        return mu * self._participation_scale(node)

    def mu_k(self, system: TaskSystem, topology: Topology, tid: int, node: int) -> float:
        """Kinetic friction ``mu_k_base + kappa·µs`` (paper: µk ∝ µs)."""
        c = self.config
        if c.kappa == 0.0:
            return c.mu_k_base
        return c.mu_k_base + c.kappa * self.mu_s(system, topology, tid, node)

    def both(self, system: TaskSystem, topology: Topology, tid: int, node: int
             ) -> tuple[float, float]:
        """(µs, µk) computed with a single dependency scan."""
        c = self.config
        mu_s = c.mu_s_base
        if self._needs_t:
            local, nearby = self.dependency_pull(system, topology, tid, node)
            mu_s += c.w_dependency * local + c.w_dependency_neighbor * nearby
        if self._needs_r:
            mu_s += c.w_resource * self.resources.affinity(tid, node)
        mu_s *= self._participation_scale(node)
        return mu_s, c.mu_k_base + c.kappa * mu_s
