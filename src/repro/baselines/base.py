"""Shared helpers for the task-granular baseline balancers."""

from __future__ import annotations

import math
from typing import Container

import numpy as np

from repro.interfaces import BalanceContext

_EMPTY: frozenset[int] = frozenset()


def pick_task_for_quota(
    ctx: BalanceContext,
    node: int,
    quota: float,
    max_candidates: int = 8,
    exclude: Container[int] = _EMPTY,
) -> int | None:
    """Choose the resident task whose size best realises a *quota* of load.

    Fluid prescriptions ("move φ load over this edge") must be realised
    with whole tasks. The classic greedy choice: among the node's largest
    *max_candidates* tasks, pick the one minimising ``|l − φ|`` subject
    to ``l < 2φ`` (moving more than twice the prescription would
    overshoot and *worsen* the pairwise imbalance). Returns the task id
    or None when no task fits.

    *exclude* holds task ids already planned for a move this round — the
    engine applies all of a round's orders after planning, so the same
    task must never be ordered twice in one round.

    The candidates and their loads come as plain ``(id, load)`` pairs
    from :meth:`~repro.tasks.TaskSystem.largest_loads_at`, a slice of
    the node's load-ordered index, so no candidate is looked up again.
    """
    if quota <= 0:
        return None
    best: int | None = None
    best_gap = math.inf
    limit = 2.0 * quota
    for tid, load in ctx.system.largest_loads_at(node, max_candidates):
        if tid in exclude or load >= limit:
            continue
        gap = abs(load - quota)
        if gap < best_gap:
            best_gap = gap
            best = tid
    return best


def free_and_up(ctx: BalanceContext, used: np.ndarray, eid: int) -> bool:
    """Whether edge *eid* is both fault-free and unreserved this round."""
    return bool(ctx.up_mask[eid]) and not bool(used[eid])
