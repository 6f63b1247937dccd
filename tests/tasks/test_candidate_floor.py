"""TaskSystem.candidate_floor: the fast-path screen's per-node bound.

The floor must equal the smallest load among each node's k largest
resident tasks (+inf when empty), and — because it is read off the
per-node load-ordered index, which every mutation updates — it must
stay exact under every mutation: moves, additions, removals, and the
transit wire. The same streams pin the index's candidate selection
(``largest_tasks_at``) to the NumPy selection it replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import builders
from repro.tasks import TaskSystem
from tests.conftest import reference_floor


def test_floor_matches_reference_and_largest_tasks_at():
    topo = builders.mesh(3, 3)
    system = TaskSystem(topo)
    rng = np.random.default_rng(0)
    for _ in range(40):
        system.add_task(float(rng.uniform(0.1, 5.0)), int(rng.integers(9)))
    k = 4
    floors = system.candidate_floor(k)
    assert (floors == reference_floor(system, k)).all()
    for node in range(9):
        cand = system.largest_tasks_at(node, k)
        assert floors[node] == system.load_of(int(cand[-1]))


def test_empty_nodes_get_inf():
    topo = builders.mesh(2, 2)
    system = TaskSystem(topo)
    assert np.isinf(system.candidate_floor(3)).all()
    system.add_task(2.0, 1)
    floors = system.candidate_floor(3)
    assert floors[1] == 2.0
    assert np.isinf(floors[[0, 2, 3]]).all()


def test_cache_tracks_every_mutation_kind():
    topo = builders.mesh(2, 3)
    system = TaskSystem(topo)
    ids = [system.add_task(load, node)
           for load, node in [(3.0, 0), (1.0, 0), (2.0, 1), (5.0, 1), (0.5, 2)]]
    k = 2
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    system.move(ids[0], 3)  # move
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    system.remove_task(ids[3])  # removal
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    new = system.add_task(9.0, 2)  # addition
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    system.send_to_transit(new)  # wire: excluded while in flight
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    system.deliver(new, 4)  # landing
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()

    # Changing k rebuilds rather than reusing the stale cache.
    assert (system.candidate_floor(1) == reference_floor(system, 1)).all()


def test_returned_view_is_read_only():
    topo = builders.mesh(2, 2)
    system = TaskSystem(topo)
    system.add_task(1.0, 0)
    floors = system.candidate_floor(2)
    try:
        floors[0] = 0.0
        raise AssertionError("floor view should be read-only")
    except ValueError:
        pass


def frozen_selection(system, node, k):
    """The NumPy candidate selection every balancer trajectory is pinned to.

    Computed from the public per-task arrays, independent of the node
    index: id-sorted residents, then (beyond *k* of them) argpartition
    followed by a stable sort, which orders equal loads the way
    introselect leaves them.
    """
    ids = system.alive_ids()
    ids = ids[system.locations_array() == node]
    loads = system.loads_array()[system.locations_array() == node]
    if ids.shape[0] <= k:
        return ids[np.argsort(-loads, kind="stable")]
    part = np.argpartition(-loads, k - 1)[:k]
    return ids[part][np.argsort(-loads[part], kind="stable")]


def assert_index_exact(system, k):
    assert (system.candidate_floor(k) == reference_floor(system, k)).all()
    locations = system.locations_array()
    for node in range(system.topology.n_nodes):
        on_node = system.tasks_at(node)
        np.testing.assert_array_equal(
            on_node, system.alive_ids()[locations == node]
        )
        for kk in range(1, 7):
            np.testing.assert_array_equal(
                system.largest_tasks_at(node, kk), frozen_selection(system, node, kk)
            )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_floor_stays_exact_under_random_mutation_streams(data):
    topo = builders.mesh(2, 3)
    system = TaskSystem(topo)
    k = data.draw(st.integers(min_value=1, max_value=5))
    # Integer-valued loads make ties dense, so the index's id tie order
    # and the introselect fallback are both exercised.
    loads = data.draw(st.sampled_from([
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=3).map(float),
    ]))
    alive: list[int] = []
    wire: list[int] = []
    # Every floor handed out, with a copy taken when it was: the cache
    # must never write into an array it has returned.
    handed_out: list[tuple[np.ndarray, np.ndarray]] = []
    # Interleave queries with mutations so the index is checked after
    # every kind of update, not just the initial placement.
    for step in range(data.draw(st.integers(min_value=5, max_value=25))):
        op = data.draw(st.sampled_from(
            ["add", "add_many", "move", "remove", "send", "deliver", "query",
             "floor", "floor"]
        ))
        resident = [t for t in alive if t not in wire]
        if op == "add" or not resident:
            alive.append(system.add_task(data.draw(loads),
                                         data.draw(st.integers(0, 5))))
        elif op == "add_many":
            pairs = data.draw(st.lists(
                st.tuples(loads, st.integers(0, 5)), min_size=1, max_size=8
            ))
            alive += system.add_tasks([p[0] for p in pairs], [p[1] for p in pairs])
        elif op == "move":
            system.move(data.draw(st.sampled_from(resident)),
                        data.draw(st.integers(0, 5)))
        elif op == "remove":
            tid = data.draw(st.sampled_from(alive))
            alive.remove(tid)
            if tid in wire:
                wire.remove(tid)
            system.remove_task(tid)
        elif op == "send":
            tid = data.draw(st.sampled_from(resident))
            system.send_to_transit(tid)
            wire.append(tid)
        elif op == "deliver" and wire:
            tid = data.draw(st.sampled_from(wire))
            wire.remove(tid)
            system.deliver(tid, data.draw(st.integers(0, 5)))
        elif op == "floor":
            # The incremental cache: same k rereads only dirty nodes, a
            # switch of k rebuilds.
            kk = data.draw(st.sampled_from([1, 4, 2]))
            floor = system.candidate_floor(kk)
            np.testing.assert_array_equal(floor, reference_floor(system, kk))
            assert not floor.flags.writeable
            handed_out.append((floor, floor.copy()))
        else:
            assert_index_exact(system, k)
    assert_index_exact(system, k)
    for floor, snapshot in handed_out:
        np.testing.assert_array_equal(floor, snapshot)
