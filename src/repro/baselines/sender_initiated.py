"""Sender-initiated threshold balancing [Eager, Lazowska & Zahorjan '86].

The adaptive load-sharing scheme the paper cites ([7]): an overloaded
node (above ``T_high``) probes up to *probes* random neighbors and sends
one task to the first probe found below ``T_low``. Probing is local and
cheap; placement quality degrades when everyone is busy (no probe
succeeds) — the classic contrast case for gradient schemes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import QUOTA_CANDIDATES, free_links
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, Migration


class SenderInitiated(Balancer):
    """Threshold + random probing, sender side.

    Parameters
    ----------
    delta:
        Relative watermarks: ``T_low = (1−δ)·mean``, ``T_high = (1+δ)·mean``.
    probes:
        Neighbors probed per overloaded node per round.
    """

    name = "sender-initiated"

    def __init__(self, delta: float = 0.25, probes: int = 2):
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if probes < 1:
            raise ConfigurationError(f"probes must be >= 1, got {probes}")
        self.delta = delta
        self.probes = probes

    def step(self, ctx: BalanceContext) -> list[Migration]:
        h = np.array(ctx.system.node_loads)
        mean = float(h.mean())
        if mean <= 0:
            return []
        t_low = (1.0 - self.delta) * mean
        t_high = (1.0 + self.delta) * mean
        heavy = np.nonzero(h > t_high)[0]
        if heavy.shape[0] == 0:
            return []
        free = free_links(ctx)
        pick = ctx.system.pick_for_quota
        planned: set[int] = set()
        migrations: list[Migration] = []
        for i in heavy[np.argsort(-h[heavy], kind="stable")]:
            i = int(i)
            js = ctx.topology.neighbors(i).copy()
            ctx.rng.shuffle(js)
            for j in js[: self.probes]:
                j = int(j)
                eid = ctx.topology.edge_id(i, j)
                if not free[eid]:
                    continue
                if h[j] >= t_low:
                    continue
                quota = min(h[i] - mean, mean - h[j])
                tid = pick(i, quota, QUOTA_CANDIDATES, planned)
                if tid is None:
                    continue
                migrations.append(Migration(tid, i, j))
                free[eid] = 0
                planned.add(tid)
                load = ctx.system.load_of(tid)
                h[i] -= load
                h[j] += load
                break
        return migrations
