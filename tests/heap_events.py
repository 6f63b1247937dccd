"""The heap-driven event driver: a test oracle for :class:`EventSimulator`.

:class:`HeapEventSimulator` plays the ``events`` engine's protocol with
the textbook discrete-event loop: every pending wake, arrival and epoch
marker is a ``(time, priority, seq, payload)`` tuple on one ``heapq``,
popped one at a time, with ``seq`` (an insertion counter) breaking
ties. :class:`~repro.sim.EventSimulator` keeps the same schedule as a
columnar :class:`~repro.sim.event_buffers.WakeSchedule`, the shared
task-engine wire (``TaskStateMixin._wire``, its own heap of arrivals)
and three epoch-marker flags; the oracle's ``_send`` puts arrivals on
its one heap instead, so that wire stays empty. Everything else —
clocks, jitter draws, the wave body, order validation, landing — is
inherited, so a pairing of the two compares
exactly the schedule: records, RNG state, final loads and
``events_processed`` must all agree.

The oracle's ``play_round`` counts its pops as ``engine.heap_pops``
under a counters probe, where the engine counts ``engine.buffer_pops``;
a suite that meant to pair the two but ran one class twice shows it.
"""

from __future__ import annotations

import heapq

from repro.exceptions import SimulationError
from repro.sim import EventSimulator
from repro.sim.events import _ARRIVAL, _CHURN, _EPOCH_BEGIN, _EPOCH_END, _WAKE
from repro.sim.kernel import RoundStats


class HeapEventSimulator(EventSimulator):
    """:class:`EventSimulator` on a tuple heap (the oracle)."""

    def _send(self, when: float, tid: int, dst: int) -> None:
        self._push(when, _ARRIVAL, (tid, dst))

    def _push(self, when: float, priority: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, priority, self._seq, payload))

    def _reset_queues(self) -> None:
        """Land arrival events left in the old heap, then start an empty
        heap."""
        for when, priority, _seq, payload in sorted(getattr(self, "_heap", [])):
            if priority == _ARRIVAL:
                self._land(*payload)
        self._heap: list[tuple] = []
        self._seq = 0

    def play_round(self, round_index: int) -> RoundStats:
        """Drain the event heap through epoch *round_index*.

        The epoch's boundary events (begin/churn/end) are pushed here;
        wakes and arrivals re-schedule themselves. Returns when the
        epoch-end marker pops.
        """
        when = round_index * self.epoch
        self._push(when, _EPOCH_BEGIN, round_index)
        if self.dynamic is not None:
            self._push(when, _CHURN, round_index)
        self._push(when, _EPOCH_END, round_index)
        if round_index == 0:
            for node in range(self.topology.n_nodes):
                self._push(0.0, _WAKE, node)

        events0 = self.events_processed
        heap = self._heap
        while heap:
            t, priority, _seq, payload = heapq.heappop(heap)
            self.now = t
            self.events_processed += 1

            if priority == _WAKE:
                # Batch every clock that fires at this exact instant
                # into one wave.
                nodes = [payload]
                while heap and heap[0][0] == t and heap[0][1] == _WAKE:
                    nodes.append(heapq.heappop(heap)[3])
                    self.events_processed += 1
                self._wave(t, nodes, self._up_mask)
                for node in nodes:
                    self._push(t + self._next_period(node), _WAKE, node)

            elif priority == _ARRIVAL:
                self._land(*payload)

            elif priority == _EPOCH_BEGIN:
                self._epoch_index = payload
                if self.fault_model is not None:
                    self.fault_model.advance(payload)
                    self._up_mask = self.fault_model.up_mask()

            elif priority == _CHURN:
                self._churn()

            else:  # _EPOCH_END — the kernel's observation point
                if self.probe.enabled:
                    self.probe.incr(
                        "engine.heap_pops", self.events_processed - events0
                    )
                return self._epoch_stats()

        raise SimulationError(
            "event heap drained without reaching an epoch-end marker"
        )  # pragma: no cover - wakes always re-schedule themselves
