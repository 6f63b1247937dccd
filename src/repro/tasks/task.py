"""Tasks, their placement, and the per-node load totals (paper §4.1-4.2).

A *task* is the paper's load/particle: an entity with a positive load
quantity ``l`` (its mass ``m``) residing on exactly one node. The paper
uses *task* when dependency/affinity matters and *load* when only the
size matters; :class:`TaskSystem` is both views at once.

Performance notes (per the HPC guides): per-node load totals
``h(v_i) = Σ_k l_{i,k}`` are the single hottest quantity in every
balancer, so they are maintained **incrementally** on each move/add/
remove — reading them is O(1) and allocation-free (a read-only view).
Task ids are stable integers; storage grows amortised O(1).

Each node also keeps its resident tasks ordered by load (largest
first, equal loads by id), updated by bisection on every move, add,
removal and wire transit; :meth:`TaskSystem.add_tasks` builds it from
one NumPy sort. The balancers' candidate queries read it directly:
:meth:`TaskSystem.largest_loads_at` (and ``largest_tasks_at``) is a
slice of it, :meth:`TaskSystem.pick_for_quota` bisects it and
:meth:`TaskSystem.candidate_floor` reads its k-th entry per node, so
no query sorts or partitions a node's tasks — except the tie
fallback documented on ``largest_loads_at``, which keeps the
historical NumPy selection wherever equal loads could reorder it.
:meth:`TaskSystem.tasks_at` sorts the node's ids per call; it is off
every hot path.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Container

import numpy as np

from repro.exceptions import TaskError
from repro.network.topology import Topology

_INITIAL_CAPACITY = 64


class TaskSystem:
    """All tasks in the system, their loads and placements.

    Parameters
    ----------
    topology:
        The network whose nodes tasks live on. Only used for bounds
        checking and node count — the TaskSystem itself is
        topology-agnostic.

    Notes
    -----
    Removed tasks keep their ids (never reused) but drop out of every
    aggregate. Loads are strictly positive; zero-load "tasks" are
    rejected because a zero-mass particle breaks the paper's energy
    equations (division by ``m·g``).
    """

    #: location sentinel for a task on the wire (see :meth:`send_to_transit`)
    TRANSIT = -2

    def __init__(self, topology: Topology):
        self.topology = topology
        self._n_nodes = topology.n_nodes
        cap = _INITIAL_CAPACITY
        self._loads = np.zeros(cap, dtype=np.float64)
        self._location = np.full(cap, -1, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._count = 0
        self._n_alive = 0
        self._node_loads = np.zeros(self._n_nodes, dtype=np.float64)
        # Per-node load-ordered index, two parallel lists per node kept
        # ascending in ``(-load, id)``: largest load first, equal loads
        # by id. Plain floats and ints, so the garbage collector never
        # walks per-task objects.
        self._neg_loads: list[list[float]] = [[] for _ in range(self._n_nodes)]
        self._ids: list[list[int]] = [[] for _ in range(self._n_nodes)]
        self._moves = 0
        self._wire_load = 0.0
        self._in_transit: set[int] = set()
        # candidate_floor's cache: the floor array last returned, its k
        # (0 before the first query) and the nodes whose entry may have
        # changed since — the index mutators mark a node when they touch
        # one of its first k positions.
        self._floor: np.ndarray | None = None
        self._floor_k = 0
        self._floor_dirty: set[int] = set()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _grow(self) -> None:
        cap = self._loads.shape[0]
        new_cap = cap * 2
        for name in ("_loads", "_location", "_alive"):
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            if name == "_location":
                new[:] = -1
            new[:cap] = old
            setattr(self, name, new)

    # The index's mutators take ``nl = -load``; equal loads are rare, so
    # the id bisection runs only when the load bisection lands on one.
    # Touching one of a node's first k positions marks its floor entry
    # dirty (entry ``min(k, c) - 1`` of ``c`` residents can only move
    # then).

    def _index_add(self, node: int, tid: int, nl: float) -> None:
        negs = self._neg_loads[node]
        ids = self._ids[node]
        r = bisect_left(negs, nl)
        if r < len(negs) and negs[r] == nl:
            r = bisect_left(ids, tid, r, bisect_right(negs, nl, r))
        negs.insert(r, nl)
        ids.insert(r, tid)
        if r < self._floor_k:
            self._floor_dirty.add(node)

    def _index_remove(self, node: int, tid: int, nl: float) -> None:
        negs = self._neg_loads[node]
        ids = self._ids[node]
        r = bisect_left(negs, nl)
        if ids[r] != tid:
            r = bisect_left(ids, tid, r, bisect_right(negs, nl, r))
        del negs[r]
        del ids[r]
        if r < self._floor_k:
            self._floor_dirty.add(node)

    def add_task(self, load: float, node: int) -> int:
        """Create a task of size *load* on *node*; returns its id."""
        if not 0 < load < math.inf:  # also rejects NaN
            raise TaskError(f"task load must be positive and finite, got {load}")
        if not 0 <= node < self._n_nodes:
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")
        if self._count >= self._loads.shape[0]:
            self._grow()
        tid = self._count
        self._count += 1
        self._loads[tid] = float(load)
        self._location[tid] = node
        self._alive[tid] = True
        self._n_alive += 1
        self._node_loads[node] += float(load)
        self._index_add(node, tid, -float(load))
        return tid

    def add_tasks(self, loads, nodes) -> list[int]:
        """Create one task per ``(loads[i], nodes[i])`` pair; returns the ids.

        The result equals calling :meth:`add_task` pair by pair — same
        ids, and per-node sums accumulated in task order, so
        :attr:`node_loads` is bit-identical — but the whole batch is
        validated first: an invalid pair raises the :class:`TaskError`
        that loop would have raised for it, and nothing is created.
        """
        loads = np.asarray(loads, dtype=np.float64).reshape(-1)
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if loads.shape != nodes.shape:
            raise TaskError(f"got {loads.shape[0]} loads for {nodes.shape[0]} nodes")
        bad_load = (loads <= 0) | ~np.isfinite(loads)
        bad = np.flatnonzero(bad_load | (nodes < 0) | (nodes >= self._n_nodes))
        if bad.shape[0]:
            load, node = float(loads[bad[0]]), int(nodes[bad[0]])
            if not 0 < load < math.inf:
                raise TaskError(f"task load must be positive and finite, got {load}")
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")
        start, k = self._count, loads.shape[0]
        while start + k > self._loads.shape[0]:
            self._grow()
        end = start + k
        self._loads[start:end] = loads
        self._location[start:end] = nodes
        self._alive[start:end] = True
        self._count = end
        self._n_alive += k
        np.add.at(self._node_loads, nodes, loads)  # unbuffered: task order
        # Group the batch by node, largest load first, equal loads in id
        # order: rank the loads, then sort the unique key node·k + rank.
        by_load = np.argsort(-loads)
        if np.any(np.diff(loads[by_load]) == 0.0):  # ties: rank them by id
            by_load = np.argsort(-loads, kind="stable")
        rank = np.empty(k, dtype=np.int64)
        rank[by_load] = np.arange(k)
        order = np.argsort(nodes * k + rank)
        negs = (-loads[order]).tolist()
        ids = (order + start).tolist()
        counts = np.bincount(nodes, minlength=self._n_nodes)
        ends = np.cumsum(counts).tolist()
        for node, c in zip(np.flatnonzero(counts).tolist(), counts[counts > 0].tolist()):
            a, b = ends[node] - c, ends[node]
            if self._ids[node]:  # already populated: merge one by one
                for nl, tid in zip(negs[a:b], ids[a:b]):
                    self._index_add(node, tid, nl)
            else:
                self._neg_loads[node] = negs[a:b]
                self._ids[node] = ids[a:b]
                if self._floor_k:
                    self._floor_dirty.add(node)
        return list(range(start, end))

    def remove_task(self, tid: int) -> None:
        """Remove (complete) task *tid* (also legal while in transit)."""
        self._check(tid)
        if tid in self._in_transit:
            self._wire_load -= self._loads[tid]
            self._in_transit.discard(tid)
        else:
            node = int(self._location[tid])
            self._node_loads[node] -= self._loads[tid]
            self._index_remove(node, tid, -float(self._loads[tid]))
        self._alive[tid] = False
        self._n_alive -= 1
        self._location[tid] = -1

    def move(self, tid: int, dest: int) -> None:
        """Relocate task *tid* to node *dest*, updating load totals."""
        self._check(tid)
        if tid in self._in_transit:
            raise TaskError(f"task {tid} is in transit; deliver it instead")
        if not 0 <= dest < self._n_nodes:
            raise TaskError(f"node {dest} out of range [0, {self._n_nodes})")
        src = int(self._location[tid])
        if src == dest:
            return
        load = self._loads[tid]
        self._node_loads[src] -= load
        self._node_loads[dest] += load
        nl = -float(load)
        self._index_remove(src, tid, nl)
        self._index_add(dest, tid, nl)
        self._location[tid] = dest
        self._moves += 1

    # ---------------------- wire (transfer latency) -------------------- #

    def send_to_transit(self, tid: int) -> None:
        """Put task *tid* on the wire: it leaves its node immediately.

        While in transit the task is alive but located nowhere — its
        load is neither on the source (the hill already shrank) nor on
        the destination (the valley has not yet filled). Matches the
        paper's dynamic-surface rule applied at the moment of departure.
        """
        self._check(tid)
        if tid in self._in_transit:
            raise TaskError(f"task {tid} is already in transit")
        node = int(self._location[tid])
        load = self._loads[tid]
        self._node_loads[node] -= load
        self._index_remove(node, tid, -float(load))
        self._location[tid] = self.TRANSIT
        self._wire_load += load
        self._in_transit.add(tid)

    def deliver(self, tid: int, dest: int) -> None:
        """Land an in-transit task on node *dest*."""
        self._check(tid)
        if tid not in self._in_transit:
            raise TaskError(f"task {tid} is not in transit")
        if not 0 <= dest < self._n_nodes:
            raise TaskError(f"node {dest} out of range [0, {self._n_nodes})")
        load = self._loads[tid]
        self._wire_load -= load
        self._in_transit.discard(tid)
        self._node_loads[dest] += load
        self._index_add(dest, tid, -float(load))
        self._location[tid] = dest
        self._moves += 1

    def in_transit(self, tid: int) -> bool:
        """Whether task *tid* is currently on the wire."""
        return tid in self._in_transit

    @property
    def wire_load(self) -> float:
        """Total load currently in transit (on no node)."""
        return self._wire_load

    @property
    def n_in_transit(self) -> int:
        """Number of tasks currently on the wire."""
        return len(self._in_transit)

    def _check(self, tid: int) -> None:
        if not (0 <= tid < self._count) or not self._alive[tid]:
            raise TaskError(f"task {tid} does not exist or was removed")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_tasks(self) -> int:
        """Number of *alive* tasks (O(1), maintained on create/remove)."""
        return self._n_alive

    @property
    def n_created(self) -> int:
        """Total tasks ever created (alive + removed)."""
        return self._count

    @property
    def total_moves(self) -> int:
        """Cumulative count of task relocations."""
        return self._moves

    def is_alive(self, tid: int) -> bool:
        """Whether task *tid* exists and is not removed."""
        return 0 <= tid < self._count and bool(self._alive[tid])

    def load_of(self, tid: int) -> float:
        """Load quantity (mass) of task *tid*."""
        self._check(tid)
        return float(self._loads[tid])

    def location_of(self, tid: int) -> int:
        """Node currently hosting task *tid* (:data:`TRANSIT` on the wire)."""
        self._check(tid)
        return int(self._location[tid])

    def placement_of(self, tid: int) -> tuple[int, float] | None:
        """``(location, load)`` of task *tid*, or None if it is not alive.

        One liveness check for the three reads an engine makes per order.
        """
        if not (0 <= tid < self._count) or not self._alive.item(tid):
            return None
        return self._location.item(tid), self._loads.item(tid)

    def placements_of(self, tids: list[int]) -> list[tuple[int, float] | None]:
        """:meth:`placement_of` for each id of *tids*, read in one pass."""
        ids = np.array(tids, dtype=np.int64)
        ok = (ids >= 0) & (ids < self._count)
        ids[~ok] = 0
        ok &= self._alive[ids]
        return [
            (loc, load) if live else None
            for live, loc, load in zip(
                ok.tolist(), self._location[ids].tolist(), self._loads[ids].tolist()
            )
        ]

    def tasks_at(self, node: int) -> np.ndarray:
        """Sorted ids of the tasks on *node*."""
        if not 0 <= node < self._n_nodes:
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")
        return np.sort(np.array(self._ids[node], dtype=np.int64))

    @property
    def node_loads(self) -> np.ndarray:
        """Read-only view of ``h`` — total load per node (paper's height)."""
        v = self._node_loads.view()
        v.flags.writeable = False
        return v

    @property
    def total_load(self) -> float:
        """Total alive load, including in-transit (conserved invariant)."""
        return float(self._node_loads.sum()) + self._wire_load

    def alive_ids(self) -> np.ndarray:
        """Ids of all alive tasks."""
        return np.nonzero(self._alive[: self._count])[0].astype(np.int64)

    def loads_array(self) -> np.ndarray:
        """Copy of per-task loads for alive tasks (indexed by alive_ids)."""
        ids = self.alive_ids()
        return self._loads[ids].copy()

    def locations_array(self) -> np.ndarray:
        """Copy of per-task locations for alive tasks (parallel to alive_ids)."""
        ids = self.alive_ids()
        return self._location[ids].copy()

    def largest_tasks_at(self, node: int, k: int) -> np.ndarray:
        """Ids of the *k* largest tasks on *node* (descending by load).

        The balancer's migration candidates: moving big particles first
        is both physically natural (they carry the gradient) and keeps
        per-round work bounded. Order and tie-breaking are those of
        :meth:`largest_loads_at`; ``k < 1`` raises :class:`TaskError`.
        """
        pairs = self.largest_loads_at(node, k)
        return np.fromiter((tid for tid, _ in pairs), np.int64, count=len(pairs))

    def largest_loads_at(self, node: int, k: int) -> list[tuple[int, float]]:
        """``(id, load)`` of the *k* largest tasks on *node*, largest first.

        A slice of the node's load-ordered index, so equal loads come in
        id order. The one exception keeps the selection the historical
        NumPy one: with more than *k* residents, that selection was
        ``argpartition`` over the id-sorted residents followed by a
        stable sort, which orders equal loads by introselect's choice.
        Whenever a duplicate load appears among the first ``k + 1``
        entries, the result is that exact NumPy call, so no balancer
        trajectory depends on the index.
        """
        negs, ids = self._top(node, k)
        return [(tid, -nl) for tid, nl in zip(ids[:k], negs[:k])]

    def pick_for_quota(
        self, node: int, quota: float, k: int, exclude: Container[int] = ()
    ) -> int | None:
        """Id of the task among *node*'s *k* largest that best realises
        a *quota* of load, or None when none fits.

        The choice of ``pick_task_for_quota`` (in ``repro.baselines``):
        the first candidate of :meth:`largest_loads_at` minimising
        ``|l − quota|`` subject to ``l < 2·quota``, skipping the ids in
        *exclude*; a quota ``<= 0`` picks nothing. The candidates are
        ordered by load, so one bisection skips every load at or above
        ``2·quota``, and the scan stops at the first gap larger than the
        best one: gaps shrink while ``l > quota`` and grow after it, so
        no later candidate can win. Same tie fallback, errors and
        answer as scanning all of :meth:`largest_loads_at`.
        """
        if quota <= 0:
            return None
        limit = -2.0 * quota  # a candidate fits when -l > limit
        negs = self._index(node, k)
        hi = min(k, len(negs))
        # Nothing fits when the k-th largest load does not: the tie
        # fallback selects the same k largest loads, so it is skipped.
        if not hi or negs[hi - 1] <= limit:
            return None
        negs, ids = self._top(node, k)
        best = None
        best_gap = math.inf
        for r in range(bisect_right(negs, limit, 0, hi), hi):
            tid = ids[r]
            if tid in exclude:
                continue
            gap = abs(negs[r] + quota)  # == |l - quota|, bit for bit
            if gap < best_gap:
                best_gap = gap
                best = tid
            elif gap > best_gap:
                break
        return best

    def _top(self, node: int, k: int) -> tuple[list[float], list[int]]:
        """The node's index lists ``(-loads, ids)`` whose first *k*
        entries are its *k* largest tasks, as :meth:`largest_loads_at`
        documents: the index itself, or the NumPy tie selection."""
        negs = self._index(node, k)
        if len(negs) > k and len(set(negs[: k + 1])) <= k:
            ids = self.tasks_at(node)
            sel = ids[np.argpartition(-self._loads[ids], k - 1)[:k]]
            sel = sel[np.argsort(-self._loads[sel], kind="stable")]
            return (-self._loads[sel]).tolist(), sel.tolist()
        return negs, self._ids[node]

    def _index(self, node: int, k: int) -> list[float]:
        """Check a *k*-largest query on *node*; the node's ``-load`` list."""
        if k < 1:
            raise TaskError(f"largest tasks need k >= 1, got {k}")
        if not 0 <= node < self._n_nodes:
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")
        return self._neg_loads[node]

    def candidate_floor(self, k: int) -> np.ndarray:
        """Smallest load among each node's ``k`` largest resident tasks.

        Shape ``(n_nodes,)``, read-only; nodes hosting no task get
        ``+inf``. This is the *most migratable* candidate load per node
        — the §5.1 slope is decreasing in the moved load, so a node none
        of whose links clear the slope threshold at its floor load
        cannot initiate anything. PPLB's Phase-B screen sweeps whole
        rounds with it. In-transit tasks (located on no node) are
        excluded.

        Read straight off the load-ordered index: entry ``min(k, c)``
        of each node's ``c`` residents. Ties cannot change the value, so
        no fallback is needed. The last result is cached: a query with
        the same *k* rereads only the nodes whose first *k* index
        entries changed since, into a fresh array (an array once
        returned never changes); a new *k* rereads every node.
        """
        if k < 1:
            raise TaskError(f"candidate_floor needs k >= 1, got {k}")
        dirty = self._floor_dirty
        if k == self._floor_k and not dirty:
            return self._floor
        last = k - 1
        all_negs = self._neg_loads
        if k == self._floor_k:
            nodes = list(dirty)
            floor = self._floor.copy()
            neg = [all_negs[node] for node in nodes]
        else:
            nodes = slice(None)
            floor = np.empty(self._n_nodes, dtype=np.float64)
            neg = all_negs
        floor[nodes] = [
            -negs[last] if len(negs) > last else (-negs[-1] if negs else math.inf)
            for negs in neg
        ]
        floor.flags.writeable = False
        self._floor = floor
        self._floor_k = k
        dirty.clear()
        return floor

    def snapshot_placement(self) -> dict[int, int]:
        """Dict of task id -> node for all alive tasks (for analysis)."""
        ids = self.alive_ids()
        return {int(t): int(self._location[t]) for t in ids}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskSystem(n_tasks={self.n_tasks}, total_load={self.total_load:.3g}, "
            f"nodes={self._n_nodes})"
        )
