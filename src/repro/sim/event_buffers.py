"""Columnar event buffers for the vectorised event engine.

The scalar :class:`~repro.sim.events.EventSimulator` keeps every
pending event as a Python tuple on a ``heapq`` — one object per wake,
arrival and epoch marker, compared element-wise on every push and pop.
At large N the heap churn alone costs more than the balancing decisions
it schedules. The ``events`` engine replaces that heap with two
columnar stores in the spirit of the PR 4
:class:`~repro.sim.results.RoundLog` (one preallocated, geometrically
grown NumPy array per field, no per-event Python objects):

* :class:`WakeSchedule` — the next wake time of every node, one slot
  per node. A *wave* (all clocks firing at one instant) is a single
  vectorised compare-and-gather instead of a pop-per-node loop.
* :class:`ArrivalBuffer` — in-flight transfers as parallel
  ``(when, rank, task_id, dest)`` columns with amortised-O(1) append.

Both stores reproduce the heap's ordering contract exactly: events are
consumed in ``(time, insertion order)`` order, where the insertion
*rank* is a monotone counter standing in for the heap's tie-breaking
sequence number. That is what lets the ``events`` engine replay the scalar
engine's schedule bit for bit (``tests/sim/
test_events_fast_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["WakeSchedule", "ArrivalBuffer"]

_MIN_CAPACITY = 16

#: rank value of an unscheduled slot (never compares ahead of a real one).
_NO_RANK = np.iinfo(np.int64).max


class WakeSchedule:
    """Per-node next-wake times as one columnar array.

    The scalar engine's invariant — exactly one pending wake per node —
    makes the wake "heap" a fixed-width table: ``times[i]`` is node
    *i*'s next firing instant and ``ranks[i]`` the order it was
    scheduled in (the heap's sequence-number tie-break). A wave is
    every node whose time equals the minimum, in rank order — the same
    batch the scalar loop assembles by popping equal-time entries.
    """

    __slots__ = ("_times", "_ranks", "_counter")

    def __init__(self, n_nodes: int):
        self._times = np.full(n_nodes, np.inf, dtype=np.float64)
        self._ranks = np.full(n_nodes, _NO_RANK, dtype=np.int64)
        self._counter = 0

    def schedule_all(self, when: float) -> None:
        """Schedule every node at *when*, ranked in node-id order (the
        round-0 seeding: the scalar engine pushes node 0..n−1)."""
        n = self._times.shape[0]
        self._times[:] = when
        self._ranks[:] = np.arange(n, dtype=np.int64)
        self._counter = n

    def peek_time(self) -> float:
        """Earliest pending wake time (``inf`` when nothing is pending)."""
        if self._times.shape[0] == 0:
            return np.inf
        return float(self._times.min())

    def pop_wave(self, when: float) -> np.ndarray:
        """Remove and return every node firing at *when*, in rank order
        (= the order the scalar heap would pop them)."""
        idx = np.nonzero(self._times == when)[0]
        if idx.shape[0] == 1:  # jittered clocks: almost every wave
            nodes = idx
        else:
            nodes = idx[np.argsort(self._ranks[idx], kind="stable")]
        self._times[nodes] = np.inf
        self._ranks[nodes] = _NO_RANK
        return nodes

    def schedule(self, nodes: np.ndarray, times: np.ndarray) -> None:
        """Schedule *nodes* at *times*, ranks assigned in array order
        (the scalar engine re-pushes a wave's nodes in wave order)."""
        k = len(nodes)
        self._times[nodes] = times
        self._ranks[nodes] = np.arange(self._counter, self._counter + k, dtype=np.int64)
        self._counter += k


class ArrivalBuffer:
    """In-flight transfers as growable parallel columns.

    Append-heavy and small (only latency-delayed transfers live here),
    so the store is unsorted columns with the :class:`RoundLog` growth
    discipline; consumption order — earliest ``when`` first, insertion
    rank breaking ties — is recovered at pop time by a masked argmin,
    which matches the heap's ``(when, seq)`` ordering for the arrival
    priority class.
    """

    __slots__ = ("_when", "_rank", "_tid", "_dest", "_n", "_counter", "_capacity")

    def __init__(self, capacity: int = 0):
        self._capacity = int(capacity)
        self._when = np.empty(self._capacity, dtype=np.float64)
        self._rank = np.empty(self._capacity, dtype=np.int64)
        self._tid = np.empty(self._capacity, dtype=np.int64)
        self._dest = np.empty(self._capacity, dtype=np.int64)
        self._n = 0
        self._counter = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, needed: int) -> None:
        new_cap = max(_MIN_CAPACITY, self._capacity * 2, needed)
        for name in ("_when", "_rank", "_tid", "_dest"):
            old = getattr(self, name)
            bigger = np.empty(new_cap, dtype=old.dtype)
            bigger[: self._n] = old[: self._n]
            setattr(self, name, bigger)
        self._capacity = new_cap

    def push(self, when: float, task_id: int, dest: int) -> None:
        """Buffer one in-flight transfer landing at *when*."""
        n = self._n
        if n >= self._capacity:
            self._grow(n + 1)
        self._when[n] = when
        self._rank[n] = self._counter
        self._tid[n] = task_id
        self._dest[n] = dest
        self._n = n + 1
        self._counter += 1

    def peek_time(self) -> float:
        """Earliest pending arrival time (``inf`` when empty)."""
        if self._n == 0:
            return np.inf
        return float(self._when[: self._n].min())

    def pop_earliest(self) -> tuple[int, int]:
        """Remove and return the ``(task_id, dest)`` of the earliest
        arrival (lowest rank among equal times)."""
        n = self._n
        when = self._when[:n]
        t = when.min()
        ties = np.nonzero(when == t)[0]
        i = int(ties[np.argmin(self._rank[ties])])
        out = (int(self._tid[i]), int(self._dest[i]))
        last = n - 1
        if i != last:  # keep columns dense; rank still orders entries
            self._when[i] = self._when[last]
            self._rank[i] = self._rank[last]
            self._tid[i] = self._tid[last]
            self._dest[i] = self._dest[last]
        self._n = last
        return out

    def drain_in_order(self) -> list[tuple[int, int]]:
        """Empty the buffer, returning ``(task_id, dest)`` pairs in
        ``(when, rank)`` order — the reset-time landing sweep."""
        n = self._n
        order = np.lexsort((self._rank[:n], self._when[:n]))
        out = [(int(self._tid[i]), int(self._dest[i])) for i in order]
        self._n = 0
        return out
