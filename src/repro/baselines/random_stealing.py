"""Receiver-initiated random work stealing (paper §2's randomized family).

Underloaded nodes (below ``(1−δ)·mean``) pick one random neighbor; if
that neighbor is above the mean they steal its best-fitting task. The
classic decentralized control with no gradient information — cheap,
oblivious, and the canonical stochastic yardstick.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import QUOTA_CANDIDATES, free_links
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, Migration


class RandomWorkStealing(Balancer):
    """Underloaded nodes steal from one random neighbor per round.

    Parameters
    ----------
    delta:
        Hunger watermark: a node steals when ``h < (1−δ)·mean``.
    """

    name = "work-stealing"

    def __init__(self, delta: float = 0.25):
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        self.delta = delta

    def step(self, ctx: BalanceContext) -> list[Migration]:
        h = np.array(ctx.system.node_loads)
        mean = float(h.mean())
        if mean <= 0:
            return []
        hungry = np.nonzero(h < (1.0 - self.delta) * mean)[0]
        if hungry.shape[0] == 0:
            return []
        free = free_links(ctx)
        pick = ctx.system.pick_for_quota
        planned: set[int] = set()
        migrations: list[Migration] = []
        # Randomized visit order (receiver-initiated: the hungry act).
        ctx.rng.shuffle(hungry)
        for i in hungry:
            i = int(i)
            js = ctx.topology.neighbors(i)
            j = int(js[ctx.rng.integers(0, js.shape[0])])
            eid = ctx.topology.edge_id(i, j)
            if not free[eid]:
                continue
            if h[j] <= mean:
                continue
            quota = min(h[j] - mean, mean - h[i])
            tid = pick(j, quota, QUOTA_CANDIDATES, planned)
            if tid is None:
                continue
            migrations.append(Migration(tid, j, i))
            free[eid] = 0
            planned.add(tid)
            load = ctx.system.load_of(tid)
            h[j] -= load
            h[i] += load
        return migrations
