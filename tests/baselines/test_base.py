"""Unit tests for repro.baselines.base."""

import numpy as np
import pytest

from repro.baselines.base import pick_task_for_quota
from repro.network import mesh
from repro.tasks import TaskSystem
from tests.conftest import make_context


def _largest_ids(system, node, k):
    """The historical NumPy candidate selection: ``argpartition`` over
    the id-sorted residents, then a stable sort by load."""
    ids = system.tasks_at(node)
    loads = np.array([system.load_of(int(t)) for t in ids])
    if ids.shape[0] > k:
        part = np.argpartition(-loads, k - 1)[:k]
        ids, loads = ids[part], loads[part]
    return ids[np.argsort(-loads, kind="stable")]


def _pick_by_lookup(ctx, node, quota, max_candidates=8, exclude=frozenset()):
    """The quota pick as it read candidates before the (id, load) pairs:
    a NumPy id array, each load looked up again."""
    if quota <= 0:
        return None
    best = None
    best_gap = np.inf
    for tid in _largest_ids(ctx.system, node, max_candidates):
        tid = int(tid)
        if tid in exclude:
            continue
        load = ctx.system.load_of(tid)
        if load >= 2.0 * quota:
            continue
        gap = abs(load - quota)
        if gap < best_gap:
            best_gap = gap
            best = tid
    return best


class TestPickTaskForQuota:
    @pytest.fixture
    def tied(self):
        # 30 residents on node 0 with heavy ties: the first k + 1 = 9
        # loads by size repeat, so largest_loads_at takes its NumPy
        # argpartition fallback, whose tie order is not the id order.
        system = TaskSystem(mesh(3, 3))
        loads = [3.0, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0, 1.0, 1.0] * 3
        rng = np.random.default_rng(4)
        system.add_tasks(rng.permutation(loads), np.zeros(len(loads), dtype=int))
        top = sorted(loads, reverse=True)[:9]
        assert len(set(top)) < len(top)
        return make_context(system.topology, system)

    @pytest.mark.parametrize("quota", [0.3, 0.6, 1.0, 1.2, 1.7, 2.0, 2.6, 4.0])
    @pytest.mark.parametrize("max_candidates", [3, 8, 12])
    def test_tie_fallback_matches_lookup_loop(self, tied, quota, max_candidates):
        got = pick_task_for_quota(tied, 0, quota, max_candidates)
        assert got == _pick_by_lookup(tied, 0, quota, max_candidates)
        assert got is None or type(got) is int

    @pytest.mark.parametrize("quota", [1.2, 2.0, 3.0])
    def test_tie_fallback_with_exclusions(self, tied, quota):
        planned = set()
        for _ in range(6):  # keep picking as a round would plan orders
            got = pick_task_for_quota(tied, 0, quota, exclude=planned)
            assert got == _pick_by_lookup(tied, 0, quota, exclude=planned)
            if got is None:
                break
            planned.add(got)
        assert planned

    def test_nonpositive_quota_picks_nothing(self, tied):
        assert pick_task_for_quota(tied, 0, 0.0) is None
        assert pick_task_for_quota(tied, 0, -1.0) is None
