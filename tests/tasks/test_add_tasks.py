"""TaskSystem.add_tasks: bulk placement ≡ a loop over add_task.

Same ids, bit-identical per-node sums (accumulated in task order), the
same TaskError for the first invalid pair — and, unlike the loop, no
state change at all when any pair is invalid.
"""

import numpy as np
import pytest

from repro.exceptions import TaskError
from repro.network import builders
from repro.tasks import TaskSystem


def loop_add(system, loads, nodes):
    return [system.add_task(float(s), int(v)) for v, s in zip(nodes, loads)]


def assert_same_state(a, b):
    assert a.n_tasks == b.n_tasks and a.n_created == b.n_created
    assert a.node_loads.tobytes() == b.node_loads.tobytes()
    np.testing.assert_array_equal(a.alive_ids(), b.alive_ids())
    np.testing.assert_array_equal(a.loads_array(), b.loads_array())
    np.testing.assert_array_equal(a.locations_array(), b.locations_array())
    for node in range(a.topology.n_nodes):
        np.testing.assert_array_equal(a.tasks_at(node), b.tasks_at(node))


@pytest.mark.parametrize("arm_floor", [False, True])
def test_matches_add_task_loop(arm_floor):
    topo = builders.mesh(5, 5)
    rng = np.random.default_rng(3)
    # Heavy-tailed sizes make summation order visible in the last bits.
    loads = rng.pareto(1.2, 700) + 1e-3
    nodes = rng.integers(0, topo.n_nodes, 700)
    bulk, loop = TaskSystem(topo), TaskSystem(topo)
    for system in (bulk, loop):
        system.add_task(2.5, 3)  # ids continue after existing tasks
        if arm_floor:
            system.candidate_floor(4)
    assert bulk.add_tasks(loads, nodes) == loop_add(loop, loads, nodes)
    assert_same_state(bulk, loop)
    if arm_floor:
        assert bulk.candidate_floor(4).tobytes() == loop.candidate_floor(4).tobytes()
        assert bulk.candidate_floor(4).tobytes() == bulk._floor_full(4).tobytes()


def test_empty_batch_is_a_no_op():
    system = TaskSystem(builders.mesh(2, 2))
    assert system.add_tasks([], []) == []
    assert system.n_created == 0


@pytest.mark.parametrize(
    "loads, nodes",
    [
        ([1.0, 0.0, 2.0], [0, 1, 2]),
        ([1.0, -2.0], [0, 1]),
        ([1.0, 1.0], [0, 9]),
        ([1.0, 1.0], [-1, 0]),
        ([1.0, 0.0], [9, 0]),  # first invalid pair decides: node error
        ([0.0, 1.0], [9, 0]),  # load is checked before node
    ],
)
def test_same_error_and_no_partial_mutation(loads, nodes):
    topo = builders.mesh(3, 3)
    bulk, loop = TaskSystem(topo), TaskSystem(topo)
    for system in (bulk, loop):
        system.add_task(1.5, 4)
        system.candidate_floor(2)
    before = TaskSystem(topo)
    before.add_task(1.5, 4)
    with pytest.raises(TaskError) as bulk_err:
        bulk.add_tasks(loads, nodes)
    with pytest.raises(TaskError) as loop_err:
        loop_add(loop, loads, nodes)
    assert str(bulk_err.value) == str(loop_err.value)
    assert_same_state(bulk, before)
    assert not bulk._floor_dirty


def test_rejects_mismatched_lengths():
    system = TaskSystem(builders.mesh(2, 2))
    with pytest.raises(TaskError):
        system.add_tasks([1.0, 2.0], [0])
    assert system.n_created == 0
