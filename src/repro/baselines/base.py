"""Shared helpers for the task-granular baseline balancers."""

from __future__ import annotations

from typing import Container

import numpy as np

from repro.interfaces import BalanceContext

#: candidates a quota pick considers: the node's largest tasks
QUOTA_CANDIDATES = 8

_EMPTY: frozenset[int] = frozenset()


def pick_task_for_quota(
    ctx: BalanceContext,
    node: int,
    quota: float,
    max_candidates: int = QUOTA_CANDIDATES,
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

    The pick is :meth:`~repro.tasks.TaskSystem.pick_for_quota`, which
    bisects the node's load-ordered index to the first load below
    ``2φ`` and stops scanning once the gaps start to grow; the
    baselines call it directly.
    """
    return ctx.system.pick_for_quota(node, quota, max_candidates, exclude)


def free_links(ctx: BalanceContext) -> bytearray:
    """The round's link reservations: 1 per edge while it is fault-free
    and unreserved. A balancer builds it once per step and clears an
    entry when it reserves that link."""
    return bytearray(np.ascontiguousarray(ctx.up_mask, dtype=bool))
