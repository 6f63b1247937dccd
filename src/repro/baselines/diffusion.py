"""Diffusion load balancing [Cybenko '89; Boillat '90; Xu & Lau '94].

"Each processor of the system balances the total quantity of load on
itself with the immediate neighboring nodes" (paper §2). The fluid first-
order scheme (FOS) iterates

    h_i ← h_i + Σ_{j ∈ N(i)} α_ij (h_j − h_i),

which is ``h ← (I − α L) h`` for uniform α. Three α policies:

* ``"uniform"`` — ``α = 1/(Δ+1)`` with Δ the maximum degree: always
  convergent (diagonally dominant) — Cybenko's classic safe choice.
* ``"boillat"`` — per-edge ``α_ij = 1/(max(deg_i, deg_j)+1)`` [1].
* ``"optimal"`` — ``α* = 2/(λ_2 + λ_n)`` of the Laplacian: the
  spectrally optimal uniform parameter, the general-graph form of the
  mesh/torus/hypercube optima derived in [19] (Xu & Lau).

:class:`TaskDiffusion` realises the same prescription with whole tasks:
each round it computes the fluid flow per edge and moves, per edge, the
single resident task that best matches the prescribed amount (the
paper's one-load-per-link constraint).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import QUOTA_CANDIDATES
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, FluidBalancer, Migration
from repro.network.topology import Topology


def optimal_alpha(topology: Topology) -> float:
    """Spectrally optimal uniform diffusion parameter ``2/(λ2 + λn)``.

    λ2 (algebraic connectivity) and λn (largest Laplacian eigenvalue)
    are computed densely — topologies here are ≤ a few thousand nodes.
    """
    lam = np.linalg.eigvalsh(topology.laplacian)
    lam2 = float(lam[1])
    lam_n = float(lam[-1])
    if lam2 <= 0:
        raise ConfigurationError("graph is disconnected (λ2 = 0); no diffusion optimum")
    return 2.0 / (lam2 + lam_n)


def _edge_alphas(topology: Topology, policy: str) -> np.ndarray:
    """Per-edge α for the requested *policy*."""
    e = topology.edges
    if policy == "uniform":
        return np.full(e.shape[0], 1.0 / (topology.max_degree + 1.0))
    if policy == "boillat":
        deg = topology.degree
        return 1.0 / (np.maximum(deg[e[:, 0]], deg[e[:, 1]]) + 1.0)
    if policy == "optimal":
        return np.full(e.shape[0], optimal_alpha(topology))
    raise ConfigurationError(
        f"unknown diffusion policy {policy!r}; use 'uniform', 'boillat' or 'optimal'"
    )


class FluidDiffusion(FluidBalancer):
    """First-order diffusion on divisible load.

    Parameters
    ----------
    policy:
        α policy: ``"uniform"``, ``"boillat"`` or ``"optimal"``.
    """

    def __init__(self, policy: str = "uniform"):
        self.policy = policy
        self.name = f"diffusion-{policy}"
        self._alphas: np.ndarray | None = None
        self._topology: Topology | None = None

    def reset(self, ctx: BalanceContext) -> None:
        self._topology = ctx.topology
        self._alphas = _edge_alphas(ctx.topology, self.policy)

    def fluid_step(self, h: np.ndarray, ctx: BalanceContext) -> np.ndarray:
        if self._alphas is None or self._topology is not ctx.topology:
            self.reset(ctx)
        e = ctx.topology.edges
        # flow > 0 moves load from edges[:,0] to edges[:,1]
        return self._alphas * (h[e[:, 0]] - h[e[:, 1]])


class TaskDiffusion(Balancer):
    """Task-granular diffusion: the FOS prescription realised with tasks.

    Each round, for every edge with a positive prescribed flow, the
    sending endpoint contributes its best-fitting task (at most one task
    per link per round — the engine's capacity). Nodes never send more
    total load than they hold.

    Parameters
    ----------
    policy:
        α policy, as for :class:`FluidDiffusion`.
    min_quota:
        Flows below this are ignored (prevents endless swapping of tiny
        prescriptions once nearly balanced).
    """

    def __init__(self, policy: str = "uniform", min_quota: float = 0.25):
        if min_quota < 0:
            raise ConfigurationError(f"min_quota must be >= 0, got {min_quota}")
        self.policy = policy
        self.min_quota = min_quota
        self.name = f"task-diffusion-{policy}"
        self._alphas: np.ndarray | None = None
        self._topology: Topology | None = None

    def reset(self, ctx: BalanceContext) -> None:
        self._topology = ctx.topology
        self._alphas = _edge_alphas(ctx.topology, self.policy)

    def step(self, ctx: BalanceContext) -> list[Migration]:
        if self._alphas is None or self._topology is not ctx.topology:
            self.reset(ctx)
        h = ctx.system.node_loads
        e = ctx.topology.edges
        flow = self._alphas * (h[e[:, 0]] - h[e[:, 1]])
        # Largest prescriptions first: the steepest gradients get links.
        # Flows below min_quota are ignored, so the walk is the sorted
        # prefix at or above it. Each edge comes up once, so only a
        # fault can refuse it.
        mag = np.abs(flow)
        order = np.argsort(-mag, kind="stable")
        order = order[: np.count_nonzero(mag >= self.min_quota)]
        # A node with no task for a quota has none for any later one:
        # quotas come largest first, its candidates stay put while the
        # round is planned and the exclusions only grow. So a failed
        # pick retires the node for the rest of the round.
        pick = ctx.system.pick_for_quota
        dry: set[int] = set()
        planned: set[int] = set()
        migrations: list[Migration] = []
        for quota, up, (u, v) in zip(
            flow[order].tolist(), ctx.up_mask[order].tolist(), e[order].tolist()
        ):
            if not up:
                continue
            src, dst = (u, v) if quota > 0 else (v, u)
            if src in dry:
                continue
            tid = pick(src, abs(quota), QUOTA_CANDIDATES, planned)
            if tid is None:
                dry.add(src)
                continue
            migrations.append(Migration(tid, src, dst))
            planned.add(tid)
        return migrations
