"""TaskSystem.pick_for_quota: the baselines' quota pick by bisection.

The pick bisects the node's load-ordered index to the first load below
``2φ`` and stops once the gaps start to grow. :func:`frozen_pick` is the
linear scan it replaced: every candidate of ``largest_loads_at`` (here
rebuilt from the public API, tie fallback included) in order, first minimum of ``|l − φ|`` among ``l < 2φ``. The two must agree
on every index state, quota, candidate count and exclusion set —
including the NumPy tie fallback of ``largest_loads_at``.
"""

import math

import numpy as np
import pytest

from repro.baselines.base import pick_task_for_quota
from repro.exceptions import TaskError
from repro.network import builders
from repro.tasks import TaskSystem
from tests.conftest import make_context


def frozen_candidates(system, node, k):
    """``largest_loads_at`` from the public API: the residents by
    ``(-load, id)``, or the historical NumPy selection whenever a load
    repeats among the first ``k + 1``."""
    ids = system.tasks_at(node)
    loads = np.array([system.load_of(int(t)) for t in ids])
    ranked = sorted(zip((-loads).tolist(), ids.tolist()))
    if len(ranked) > k and len({nl for nl, _ in ranked[: k + 1]}) <= k:
        sel = ids[np.argpartition(-loads, k - 1)[:k]]
        sel_loads = np.array([system.load_of(int(t)) for t in sel])
        sel = sel[np.argsort(-sel_loads, kind="stable")]
        return [(int(t), system.load_of(int(t))) for t in sel]
    return [(tid, -nl) for nl, tid in ranked[:k]]


def frozen_pick(system, node, quota, k, exclude=frozenset()):
    """The quota pick as a full scan of the ``largest_loads_at`` pairs."""
    if quota <= 0:
        return None
    best = None
    best_gap = math.inf
    limit = 2.0 * quota
    for tid, load in frozen_candidates(system, node, k):
        if tid in exclude or load >= limit:
            continue
        gap = abs(load - quota)
        if gap < best_gap:
            best_gap = gap
            best = tid
    return best


def quotas_for(system, node, rng):
    """Quotas around every resident load: equal to it, half of it (so
    ``l == 2φ``), just either side, and a few random ones."""
    loads = [load for _, load in system.largest_loads_at(node, 64)]
    qs = [0.0, -1.0, 1e-12, 1e9, float(rng.uniform(0.05, 6.0))]
    for load in loads[:10]:
        qs += [load, load / 2.0, math.nextafter(load / 2.0, 0.0),
               math.nextafter(load / 2.0, math.inf), load * 0.75, load * 1.5]
    return qs


def check_node(system, node, rng, ks=(1, 3, 8, 12)):
    ids = [tid for tid, _ in system.largest_loads_at(node, 64)]
    for k in ks:
        for quota in quotas_for(system, node, rng):
            excludes = [frozenset(), frozenset(ids[:1]), frozenset(ids[1:4:2])]
            if ids:
                excludes.append(frozenset(rng.choice(ids, size=min(3, len(ids)),
                                                      replace=False).tolist()))
            for exclude in excludes:
                got = system.pick_for_quota(node, quota, k, exclude)
                assert got == frozen_pick(system, node, quota, k, exclude), (
                    node, quota, k, sorted(exclude))
                assert got is None or type(got) is int


def test_random_index_states_match_the_scan():
    topo = builders.mesh(3, 3)
    rng = np.random.default_rng(11)
    system = TaskSystem(topo)
    system.add_tasks(rng.uniform(0.1, 5.0, 60), rng.integers(0, 9, 60))
    for step in range(12):
        # Mutate the index every way a round does, then compare.
        alive = system.alive_ids().tolist()
        for tid in rng.choice(alive, size=8, replace=False).tolist():
            system.move(tid, int(rng.integers(9)))
        system.remove_task(int(rng.choice(system.alive_ids())))
        system.add_task(float(rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])),
                        int(rng.integers(9)))
        for node in range(9):
            check_node(system, node, rng)


def test_duplicate_loads_take_the_tie_fallback():
    # The first k + 1 loads repeat, so largest_loads_at answers with its
    # NumPy selection, whose order among equal loads is not id order.
    system = TaskSystem(builders.mesh(2, 2))
    loads = [3.0, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0, 1.0, 1.0] * 3
    rng = np.random.default_rng(4)
    system.add_tasks(rng.permutation(loads), np.zeros(len(loads), dtype=int))
    negs = [-load for _, load in system.largest_loads_at(0, 9)]
    assert len(set(negs)) < 9
    check_node(system, 0, rng, ks=(2, 3, 5, 8, 9, 12, 40))
    planned = set()
    while (tid := system.pick_for_quota(0, 1.2, 8, planned)) is not None:
        assert tid == frozen_pick(system, 0, 1.2, 8, planned)
        planned.add(tid)
    assert frozen_pick(system, 0, 1.2, 8, planned) is None


def test_tie_at_the_candidate_boundary_takes_the_fallback():
    # Only entries k and k + 1 tie (5.0 at k = 2): the NumPy selection
    # keeps a different 5.0 task than the index's id order would.
    loads = [4.0, 4.0, 5.0, 5.0, 2.5, 3.0, 2.0, 1.5, 2.0, 4.0, 2.5, 6.0,
             3.5, 3.5, 3.0, 5.0, 2.5, 3.5, 3.5, 5.0, 4.0, 3.5, 3.5]
    system = TaskSystem(builders.mesh(2, 2))
    system.add_tasks(loads, np.zeros(len(loads), dtype=int))
    assert [tid for tid, _ in system.largest_loads_at(0, 2)] == [11, 3]
    assert system.pick_for_quota(0, 5.0, 2) == 3 == frozen_pick(system, 0, 5.0, 2)
    check_node(system, 0, np.random.default_rng(1), ks=(2, 3, 4))


def test_fewer_residents_than_candidates_and_empty_node():
    system = TaskSystem(builders.mesh(2, 2))
    system.add_tasks([4.0, 1.0, 2.5], [1, 1, 1])
    rng = np.random.default_rng(0)
    check_node(system, 1, rng, ks=(8,))
    assert system.pick_for_quota(0, 1.0, 8) is None
    assert system.pick_for_quota(0, 1.0, 8, {3}) is None


def test_excluded_best_falls_to_the_next_best():
    system = TaskSystem(builders.mesh(2, 2))
    a, b, c = system.add_tasks([3.0, 2.1, 1.0], [0, 0, 0])
    assert system.pick_for_quota(0, 2.0, 8) == b
    assert system.pick_for_quota(0, 2.0, 8, {b}) == a
    assert system.pick_for_quota(0, 2.0, 8, {a, b}) == c
    assert system.pick_for_quota(0, 2.0, 8, {a, b, c}) is None


def test_boundaries_of_the_window():
    system = TaskSystem(builders.mesh(2, 2))
    big, mid, small = system.add_tasks([4.0, 2.0, 1.0], [0, 0, 0])
    assert system.pick_for_quota(0, 2.0, 8) == mid  # φ equal to a load
    assert system.pick_for_quota(0, 2.0, 8, {mid}) == small  # l == 2φ is out
    assert system.pick_for_quota(0, 2.0, 8, {mid, small}) is None  # 4.0 == 2φ
    assert system.pick_for_quota(0, math.nextafter(2.0, 3.0), 8, {mid, small}) == big
    assert system.pick_for_quota(0, 0.5, 8) is None  # 1.0 == 2φ: nothing fits
    assert system.pick_for_quota(0, math.inf, 8) is None
    assert system.pick_for_quota(0, math.nan, 8) is None
    for quota in (0.0, -0.0, -3.0):
        assert system.pick_for_quota(0, quota, 8) is None


def test_errors_match_largest_loads_at():
    system = TaskSystem(builders.mesh(2, 2))
    system.add_task(1.0, 0)
    for node, k in ((0, 0), (4, 8), (-1, 8)):
        with pytest.raises(TaskError) as want:
            system.largest_loads_at(node, k)
        with pytest.raises(TaskError) as got:
            system.pick_for_quota(node, 1.0, k)
        assert str(got.value) == str(want.value)
    # A quota <= 0 answers None before any check, as the scan did.
    assert system.pick_for_quota(4, 0.0, 0) is None


def test_frozen_candidates_are_largest_loads_at():
    system = TaskSystem(builders.mesh(2, 2))
    loads = [3.0, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0, 1.0, 1.0] * 3
    system.add_tasks(np.random.default_rng(4).permutation(loads), np.zeros(30, dtype=int))
    system.add_tasks([4.0, 1.0, 2.5], [1, 1, 1])
    for node in (0, 1, 2):
        for k in (1, 2, 3, 8, 9, 40):
            assert system.largest_loads_at(node, k) == frozen_candidates(system, node, k)


def test_pick_task_for_quota_is_the_method():
    system = TaskSystem(builders.mesh(2, 2))
    system.add_tasks([3.0, 1.4, 1.2, 0.4], [2, 2, 2, 2])
    ctx = make_context(system.topology, system)
    for quota in (0.3, 1.0, 1.3, 2.0):
        want = system.pick_for_quota(2, quota, 8, frozenset())
        assert pick_task_for_quota(ctx, 2, quota) == want
        assert pick_task_for_quota(ctx, 2, quota, 2, {want}) == frozen_pick(
            system, 2, quota, 2, {want})
