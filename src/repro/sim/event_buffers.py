"""The columnar wake schedule of the event engine.

A textbook discrete-event loop keeps every pending wake as a Python
tuple on a binary heap — one object per node per wake, compared
element-wise on every push and pop. At large N that heap churn alone
costs more than the balancing decisions it schedules.
:class:`~repro.sim.events.EventSimulator` (the ``events`` engine) keeps
its pending wakes in :class:`WakeSchedule` instead: the next wake time
of every node, one slot per node, so a *wave* (all clocks firing at one
instant) is a single vectorised compare-and-gather instead of a
pop-per-node loop.

The schedule keeps the heap's ordering contract exactly: wakes are
consumed in ``(time, insertion order)`` order, where the insertion
*rank* is a monotone counter standing in for the heap's tie-breaking
sequence number. In-flight transfers are not here: they wait on the
``(when, seq)`` heap of :class:`~repro.sim.kernel.TaskStateMixin`, the
wire both task engines share. ``tests/heap_events.py`` keeps the heap
form of the whole schedule as a test oracle, and
``tests/sim/test_events_fast_equivalence.py`` holds the engine to it
bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WakeSchedule"]

#: rank value of an unscheduled slot (never compares ahead of a real one).
_NO_RANK = np.iinfo(np.int64).max


class WakeSchedule:
    """Per-node next-wake times as one columnar array.

    The event engine's invariant — exactly one pending wake per node —
    makes the wake "heap" a fixed-width table: ``times[i]`` is node
    *i*'s next firing instant and ``ranks[i]`` the order it was
    scheduled in (the heap's sequence-number tie-break). A wave is
    every node whose time equals the minimum, in rank order — the same
    batch a heap loop assembles by popping equal-time entries.
    """

    __slots__ = ("_times", "_ranks", "_counter")

    def __init__(self, n_nodes: int):
        self._times = np.full(n_nodes, np.inf, dtype=np.float64)
        self._ranks = np.full(n_nodes, _NO_RANK, dtype=np.int64)
        self._counter = 0

    def schedule_all(self, when: float) -> None:
        """Schedule every node at *when*, ranked in node-id order (the
        round-0 seeding: a heap loop pushes node 0..n−1)."""
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
        (= the order a heap would pop them)."""
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
        (a wave's nodes are rescheduled in wave order)."""
        k = len(nodes)
        self._times[nodes] = times
        self._ranks[nodes] = np.arange(self._counter, self._counter + k, dtype=np.int64)
        self._counter += k
